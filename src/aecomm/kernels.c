/* aecomm's compiled loops, built once per process by nn.compiled_kernel. Each does, per element and in
   the same order, the arithmetic of its numpy form, the *_numpy function its Python caller falls back on,
   which it must equal bit for bit before it is used; the dense loops call the dgemm np.matmul calls. */
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
   above that as two halves split at n / 2 rounded down to a multiple of 8. Neither this nor
   PAIRWISE below is inlined: with their recursion inlined, GCC 12 peaks at 45 MB building this
   file at -O3, without at 42 MB, and a process that builds it counts that in its own peak RSS. */
#define PAIRWISE_SUM(T)                                                                          \
    static __attribute__((noinline)) void pairwise_##T(const double (*t)[2], const T *ix,       \
                                                       ptrdiff_t n, double *q, double *r) {      \
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

/* cblas_dgemm of a BLAS built with 64-bit integers (scipy_cblas_dgemm64_ of numpy's OpenBLAS):
   order, transA, transB, m, n, k, alpha, A, lda, B, ldb, beta, C, ldc */
typedef void dgemm_t(int, int, int, int64_t, int64_t, int64_t, double, const double *, int64_t,
                     const double *, int64_t, double, double *, int64_t);
enum { ROW_MAJOR = 101, NO_TRANS = 111, TRANS = 112 };

/* nn.mlp_forward over rows inputs: per layer Z = A @ W, as np.matmul calls gemm, then Z += b and,
   on every layer but the last, Z = np.maximum(Z, 0.0): +0.0 for -0.0, nan kept. A is X on the
   first layer, or, where X is NULL, that layer's Z already holds its gathered rows. A layer is a
   row of its input and output widths and the addresses of its W, b and Z. */
void dense_forward(dgemm_t *gemm, const int64_t (*layer)[5], ptrdiff_t n_layers, const double *X,
                   ptrdiff_t rows) {
    for (ptrdiff_t k = 0; k < n_layers; k++) {
        int64_t in = layer[k][0], out = layer[k][1];
        const double *W = (const double *)layer[k][2], *b = (const double *)layer[k][3];
        double *Z = (double *)layer[k][4];
        const double *A = k ? (const double *)layer[k - 1][4] : X;
        if (A)
            gemm(ROW_MAJOR, NO_TRANS, NO_TRANS, rows, out, in, 1.0, A, in, W, out, 0.0, Z, out);
        if (k == n_layers - 1) {
            for (ptrdiff_t i = 0; i < rows * out; i += out)
                for (int64_t j = 0; j < out; j++)
                    Z[i + j] += b[j];
        } else {
            for (ptrdiff_t i = 0; i < rows * out; i += out)
                for (int64_t j = 0; j < out; j++) {
                    double z = Z[i + j] + b[j];
                    Z[i + j] = z > 0.0 || z != z ? z : 0.0;
                }
        }
    }
}

/* nn.mlp_backward from the upstream gradient dY, last layer first: on a hidden layer
   dZ = dA * (Z > 0), written over the dA it receives; gb = np.add.reduce(dZ, axis=0), from +0.0
   in row order; then, unless the layer's dA is NULL (an index input's first layer, whose weight
   gradient the caller scatters), gW = A.T @ dZ and dA = dZ @ W.T as np.matmul calls gemm, A
   being X on the first layer. A layer is a row of its input and output widths and the addresses
   of its W, Z (its output), gW, gb and dA. */
void dense_backward(dgemm_t *gemm, const int64_t (*layer)[7], ptrdiff_t n_layers, const double *X,
                    const double *dY, ptrdiff_t rows) {
    const double *dZ = dY;
    for (ptrdiff_t k = n_layers - 1; k >= 0; k--) {
        int64_t in = layer[k][0], out = layer[k][1];
        const double *W = (const double *)layer[k][2], *Z = (const double *)layer[k][3];
        double *gW = (double *)layer[k][4], *gb = (double *)layer[k][5], *dA = (double *)layer[k][6];
        for (int64_t j = 0; j < out; j++)
            gb[j] = 0.0;
        if (k == n_layers - 1) {
            for (ptrdiff_t i = 0; i < rows * out; i += out)
                for (int64_t j = 0; j < out; j++)
                    gb[j] += dZ[i + j];
        } else {
            double *d = (double *)dZ;
            for (ptrdiff_t i = 0; i < rows * out; i += out)
                for (int64_t j = 0; j < out; j++) {
                    d[i + j] *= (double)(Z[i + j] > 0.0);
                    gb[j] += d[i + j];
                }
        }
        if (dA) {
            const double *A = k ? (const double *)layer[k - 1][3] : X;
            gemm(ROW_MAJOR, TRANS, NO_TRANS, in, out, rows, 1.0, A, in, dZ, out, 0.0, gW, out);
            gemm(ROW_MAJOR, NO_TRANS, TRANS, rows, in, out, 1.0, dZ, out, W, out, 0.0, dA, in);
        }
        dZ = dA;
    }
}

/* comm.gather_backward: out (n_out x cols) = +0.0, then out[ix[i]] += d[i] in row order */
void scatter_add(const double *d, const ptrdiff_t *ix, ptrdiff_t rows, ptrdiff_t cols, double *out,
                 ptrdiff_t n_out) {
    for (ptrdiff_t i = 0; i < n_out * cols; i++)
        out[i] = 0.0;
    for (ptrdiff_t i = 0; i < rows; i++)
        for (ptrdiff_t j = 0; j < cols; j++)
            out[ix[i] * cols + j] += d[i * cols + j];
}

/* comm.gather: 0 if an index is outside [0, n_rows), writing nothing; else out[i] = X[ix[i]] */
int gather_rows(const double *X, ptrdiff_t n_rows, ptrdiff_t cols, const ptrdiff_t *ix, ptrdiff_t n,
                double *out) {
    for (ptrdiff_t i = 0; i < n; i++)
        if (ix[i] < 0 || ix[i] >= n_rows)
            return 0;
    for (ptrdiff_t i = 0; i < n; i++)
        for (ptrdiff_t j = 0; j < cols; j++)
            out[i * cols + j] = X[ix[i] * cols + j];
    return 1;
}

/* The n terms TERM(i) summed in the order of numpy's pairwise sum, as PAIRWISE_SUM above; a whole
   add.reduce is +0.0 plus this */
#define PAIRWISE(NAME, TERM)                                                                     \
    static __attribute__((noinline)) double NAME(const double *a, const double *b, ptrdiff_t n) {\
        if (n < 8) {                                                                             \
            double s = -0.0;                                                                     \
            for (ptrdiff_t i = 0; i < n; i++)                                                    \
                s += TERM(i);                                                                    \
            return s;                                                                            \
        }                                                                                        \
        if (n <= 128) {                                                                          \
            double r[8];                                                                         \
            for (int k = 0; k < 8; k++)                                                          \
                r[k] = TERM(k);                                                                  \
            ptrdiff_t i = 8;                                                                     \
            for (; i < n - n % 8; i += 8)                                                        \
                for (int k = 0; k < 8; k++)                                                      \
                    r[k] += TERM(i + k);                                                         \
            double s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));        \
            for (; i < n; i++)                                                                   \
                s += TERM(i);                                                                    \
            return s;                                                                            \
        }                                                                                        \
        ptrdiff_t h = n / 2 - n / 2 % 8;                                                         \
        return NAME(a, b, h) + NAME(a + h, b + h, n - h);                                        \
    }
#define ELEMENT(i) a[i]
#define PRODUCT(i) (a[i] * b[i])
PAIRWISE(sum_pw, ELEMENT)
PAIRWISE(dot_pw, PRODUCT)

/* comm.normalize_average over the n doubles of X: q = add.reduce(X * X); -1.0 for q == 0, writing
   nothing; else s = sqrt(num / q), or nan where q is not below inf, and out = s * X */
double normalize_average(const double *X, ptrdiff_t n, double num, double *out) {
    double q = 0.0 + dot_pw(X, X, n);
    if (q == 0.0)
        return -1.0;
    double s = q < INFINITY ? sqrt(num / q) : NAN;
    for (ptrdiff_t i = 0; i < n; i++)
        out[i] = s * X[i];
    return s;
}

/* comm.normalize_average_backward over the n doubles of dXp and X: 0 for q == 0, writing nothing
   (the numpy form raises); else out = s * (dXp - X * (add.reduce(dXp * X) / q)) */
int normalize_average_backward(const double *dXp, const double *X, ptrdiff_t n, double s,
                               double *out) {
    double q = 0.0 + dot_pw(X, X, n);
    if (q == 0.0)
        return 0;
    double c = (0.0 + dot_pw(dXp, X, n)) / q;
    for (ptrdiff_t i = 0; i < n; i++)
        out[i] = s * (dXp[i] - X[i] * c);
    return 1;
}

/* nn.softmax_cross_entropy's first pass over n rows of m logits x: 0 if a label is outside
   [0, m), writing nothing; else e = x - top per row, top being its max, and picked[i] =
   e[i, label[i]]. top equals np.maximum.reduce's but for the sign of a zero max and in a row
   holding a nan, which no output shows: a row whose max is both 0.0 and -0.0 has z >= 2, and a nan
   reaches z through exp, and from z every output of its row. */
int xent_shift(const double *restrict x, const ptrdiff_t *restrict label, ptrdiff_t n, ptrdiff_t m,
               double *restrict e, double *restrict picked) {
    for (ptrdiff_t i = 0; i < n; i++)
        if (label[i] < 0 || label[i] >= m)
            return 0;
    for (ptrdiff_t i = 0; i < n; i++) {
        const double *row = x + i * m;
        double top[8];
        ptrdiff_t j = 0;
        for (int k = 0; k < 8; k++)
            top[k] = row[0];
        for (; j + 8 <= m; j += 8) /* 8 independent maxima, which the compiler vectorizes */
            for (int k = 0; k < 8; k++)
                top[k] = row[j + k] > top[k] ? row[j + k] : top[k];
        for (; j < m; j++)
            top[0] = row[j] > top[0] ? row[j] : top[0];
        for (int k = 1; k < 8; k++)
            top[0] = top[k] > top[0] ? top[k] : top[0];
        for (j = 0; j < m; j++)
            e[i * m + j] = row[j] - top[0];
        picked[i] = e[i * m + label[i]];
    }
    return 1;
}

/* its second pass, after np.exp(e): z[i] = add.reduce(e[i]) */
void xent_row_sums(const double *e, ptrdiff_t n, ptrdiff_t m, double *z) {
    for (ptrdiff_t i = 0; i < n; i++)
        z[i] = 0.0 + sum_pw(e + i * m, e + i * m, m);
}

/* its third, after log_z = np.log(z): the loss -(add.reduce(picked - log_z) / n), through picked,
   and the gradient e = (e / z - (j == label)) / n */
double xent_finish(double *e, const ptrdiff_t *label, ptrdiff_t n, ptrdiff_t m, double *picked,
                   const double *log_z, const double *z) {
    for (ptrdiff_t i = 0; i < n; i++)
        picked[i] -= log_z[i];
    double loss = -((0.0 + sum_pw(picked, picked, n)) / (double)n);
    for (ptrdiff_t i = 0; i < n; i++) {
        double *row = e + i * m, zi = z[i], dn = (double)n, at_label = row[label[i]] / zi - 1.0;
        for (ptrdiff_t j = 0; j < m; j++)
            row[j] = row[j] / zi / dn;
        row[label[i]] = at_label / dn;
    }
    return loss;
}
