/* aecomm's compiled loops, built once per process by nn.compiled_kernel. Each does, per element
   and in the same order, the arithmetic of its numpy form, which it must equal bit for bit before
   it is used: adam_step that of nn._adam_numpy, batch_errors that of metrics._batch_errors_numpy. */
#include <math.h>
#include <stddef.h>
#include <stdint.h>

void adam_step(double *restrict p, const double *restrict g, double *restrict m, double *restrict v,
               ptrdiff_t n, double b1, double b2, double c1, double c2, double eps_t, double lr_t) {
    for (ptrdiff_t i = 0; i < n; i++) {
        v[i] = v[i] * b2 + (g[i] * c2) * g[i];
        m[i] = m[i] * b1 + g[i] * c1;
        p[i] -= (m[i] * lr_t) / (sqrt(v[i]) + eps_t);
    }
}

/* (power, norm) table rows at n indices ix, summed per column into *q and *r in the order of
   numpy's pairwise sum: one by one from -0.0 below 8 terms, in 8 accumulators up to 128, and
   above that as two halves split at n / 2 rounded down to a multiple of 8 */
#define PAIRWISE_SUM(T)                                                                          \
    static void pairwise_##T(const double (*t)[2], const T *ix, ptrdiff_t n, double *q,         \
                             double *r) {                                                        \
        if (n < 8) {                                                                             \
            double a = -0.0, b = -0.0;                                                           \
            for (ptrdiff_t i = 0; i < n; i++) {                                                  \
                a += t[ix[i]][0];                                                                \
                b += t[ix[i]][1];                                                                \
            }                                                                                    \
            *q = a, *r = b;                                                                      \
        } else if (n <= 128) {                                                                   \
            double a[8], b[8];                                                                   \
            for (int k = 0; k < 8; k++)                                                          \
                a[k] = t[ix[k]][0], b[k] = t[ix[k]][1];                                          \
            ptrdiff_t i = 8;                                                                     \
            for (; i < n - n % 8; i += 8)                                                        \
                for (int k = 0; k < 8; k++)                                                      \
                    a[k] += t[ix[i + k]][0], b[k] += t[ix[i + k]][1];                            \
            *q = ((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7]));              \
            *r = ((b[0] + b[1]) + (b[2] + b[3])) + ((b[4] + b[5]) + (b[6] + b[7]));              \
            for (; i < n; i++)                                                                   \
                *q += t[ix[i]][0], *r += t[ix[i]][1];                                            \
        } else {                                                                                 \
            ptrdiff_t h = n / 2 - n / 2 % 8;                                                     \
            double q2, r2;                                                                       \
            pairwise_##T(t, ix, h, q, r);                                                        \
            pairwise_##T(t, ix + h, n - h, &q2, &r2);                                            \
            *q += q2, *r += r2;                                                                  \
        }                                                                                        \
    }
PAIRWISE_SUM(uint8_t)
PAIRWISE_SUM(uint16_t)
PAIRWISE_SUM(uint32_t)

/* |sqrt(bs_power / sum q) - s_alpha| * (sum r / bs) per row of bs indices, each sum started at
   +0.0 as add.reduce starts it */
#define BATCH_ERRORS(T)                                                                          \
    for (ptrdiff_t row = 0; row < rows; row++) {                                                 \
        double q, r;                                                                             \
        pairwise_##T(t, (const T *)ix + row * bs, bs, &q, &r);                                   \
        out[row] = fabs(sqrt(bs_power / (0.0 + q)) - s_alpha) * ((0.0 + r) / (double)bs);       \
    }                                                                                            \
    return 1;

/* norm-error's per-batch errors from a (power, norm) table of interleaved doubles, for rows x bs
   indices of `unit` bytes each; returns 0, writing nothing, for a unit other than 1, 2 or 4 */
int batch_errors(const double (*t)[2], const void *ix, int unit, ptrdiff_t rows, ptrdiff_t bs,
                 double bs_power, double s_alpha, double *out) {
    switch (unit) {
    case 1: BATCH_ERRORS(uint8_t)
    case 2: BATCH_ERRORS(uint16_t)
    case 4: BATCH_ERRORS(uint32_t)
    }
    return 0;
}
