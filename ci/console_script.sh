#!/usr/bin/env bash
# Runs the `aecomm` console script found on PATH, in the current directory,
# which should be empty: a train, a baseline train run twice (the same
# run.json bytes), a ser on the first train (exit 0), a ser on an indent=2
# copy of the run (exit 0, the same ser.csv bytes: ser compares JSON values,
# not text), a train with the removed noise-seed key (exit 2, no directory),
# a diverged run whose validation_accuracy is null, a ser on it (exit 1, no
# ser.csv), a ser on a run whose transmitter power overflows while its losses
# stay finite (exit 1, no ser.csv: the overflow stops the run with a null
# loss), a ser on copies of the run with another config.power, with
# loss_curve "x" and with loss_curve cut to its first 3 entries (each exit 2,
# no ser.csv), a tiny norm-error, a norm-error at M=512 and Bs=3 run twice
# (the same norm_error.csv bytes), a 2-cell compare whose copy, cut mid-row,
# resumes to the same bytes, and a copy without compare_meta.json, which is
# refused (exit 2) and left as it was; no command may leave a temporary file.
# Usage: cd "$(mktemp -d)" && bash ci/console_script.sh
set -e
echo '{"M": 4, "batch_size": 8, "data_budget": 800, "tx_hidden": [8], "rx_hidden": [8], "val_batches": 1, "val_batch_size": 100}' > train.json
echo '{"M": 4, "batch_size": 8, "data_budget": 80, "lr": 1e100, "tx_hidden": [8], "rx_hidden": [8], "val_batches": 1, "val_batch_size": 10}' > diverged.json
echo '{"M": 2, "batch_size": 1, "data_budget": 3, "lr": 1e100, "tx_hidden": [4], "rx_hidden": [4], "val_batches": 1, "val_batch_size": 10}' > overflow.json
echo '{"run_json": "run/run.json", "n_symbols": 1000}' > ser.json
echo '{"run_json": "diverged/run.json", "n_symbols": 1000}' > ser_diverged.json
aecomm train --config train.json --out run
echo '{"M": 4, "batch_size": 8, "data_budget": 800, "architecture": "baseline", "tx_hidden": [8], "rx_hidden": [8], "val_batches": 1, "val_batch_size": 100}' > baseline.json
aecomm train --config baseline.json --out baseline
aecomm train --config baseline.json --out baseline_again
cmp baseline/run.json baseline_again/run.json
aecomm ser --config ser.json --out ser
test -s ser/ser.csv
python -c "import json; json.dump(json.load(open('run/run.json')), open('indented.json', 'w'), indent=2)"
echo '{"run_json": "indented.json", "n_symbols": 1000}' > ser_indented.json
aecomm ser --config ser_indented.json --out ser_indented
cmp ser/ser.csv ser_indented/ser.csv
echo '{"noise_seed": 0}' > removed_key.json
rc=0; aecomm train --config removed_key.json --out removed_key || rc=$?
test "$rc" -eq 2
test ! -e removed_key
aecomm train --config diverged.json --out diverged
python -c "import json; assert json.load(open('diverged/run.json'))['validation_accuracy'] is None"
rc=0; aecomm ser --config ser_diverged.json --out ser_diverged || rc=$?
test "$rc" -eq 1
test ! -e ser_diverged/ser.csv
aecomm train --config overflow.json --out overflow
echo '{"run_json": "overflow/run.json", "n_symbols": 1000}' > ser_overflow.json
rc=0; aecomm ser --config ser_overflow.json --out ser_overflow || rc=$?
test "$rc" -eq 1
test ! -e ser_overflow/ser.csv
python -c "import json; d = json.load(open('run/run.json')); d['config']['power'] = 100; json.dump(d, open('power100.json', 'w'))"
echo '{"run_json": "power100.json", "n_symbols": 1000}' > ser_power100.json
rc=0; aecomm ser --config ser_power100.json --out ser_power100 || rc=$?
test "$rc" -eq 2
test ! -e ser_power100/ser.csv
python -c "import json; d = json.load(open('run/run.json')); d['loss_curve'] = 'x'; json.dump(d, open('loss_x.json', 'w'))"
echo '{"run_json": "loss_x.json", "n_symbols": 1000}' > ser_loss_x.json
rc=0; aecomm ser --config ser_loss_x.json --out ser_loss_x || rc=$?
test "$rc" -eq 2
test ! -e ser_loss_x/ser.csv
python -c "import json; d = json.load(open('run/run.json')); d['loss_curve'] = d['loss_curve'][:3]; json.dump(d, open('loss_cut.json', 'w'))"
echo '{"run_json": "loss_cut.json", "n_symbols": 1000}' > ser_loss_cut.json
rc=0; aecomm ser --config ser_loss_cut.json --out ser_loss_cut || rc=$?
test "$rc" -eq 2
test ! -e ser_loss_cut/ser.csv
echo '{"M_list": [4], "batch_sizes": [4, 8], "n_inits": 2, "n_batches": 10}' > norm_error.json
aecomm norm-error --config norm_error.json --out ne
test -s ne/norm_error.csv
test -s ne/norm_error_meta.json
echo '{"M_list": [512], "batch_sizes": [3], "n_inits": 2, "n_batches": 10}' > norm_error_512.json
aecomm norm-error --config norm_error_512.json --out ne512
aecomm norm-error --config norm_error_512.json --out ne512_again
cmp ne512/norm_error.csv ne512_again/norm_error.csv
echo '{"M": 4, "batch_sizes": [8, 16], "init_seeds": [0], "data_seeds": [100], "data_budget": 160, "tx_hidden": [8], "rx_hidden": [8], "val_batches": 1, "val_batch_size": 100}' > compare.json
aecomm compare --config compare.json --out full --workers 1
cp -r full cut
head -c "$(( $(head -n 3 full/accuracy.csv | wc -c) + 10 ))" full/accuracy.csv > cut/accuracy.csv
aecomm compare --config compare.json --out cut --workers 1
cmp full/accuracy.csv cut/accuracy.csv
cp -r full nometa
rm nometa/compare_meta.json
rc=0; aecomm compare --config compare.json --out nometa --workers 1 || rc=$?
test "$rc" -eq 2
cmp full/accuracy.csv nometa/accuracy.csv
test ! -e nometa/compare_meta.json
test -z "$(find . -name '*.tmp')"
