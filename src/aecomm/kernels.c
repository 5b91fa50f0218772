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
void scatter_add(const double *d, const int64_t *ix, ptrdiff_t rows, ptrdiff_t cols, double *out,
                 ptrdiff_t n_out) {
    for (ptrdiff_t i = 0; i < n_out * cols; i++)
        out[i] = 0.0;
    for (ptrdiff_t i = 0; i < rows; i++)
        for (ptrdiff_t j = 0; j < cols; j++)
            out[ix[i] * cols + j] += d[i * cols + j];
}
