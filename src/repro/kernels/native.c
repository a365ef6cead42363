/*
 * Native gather and requantize epilogue of the blocked int8 convolution.
 *
 * The matrix product between the two stays in BLAS; these kernels replace
 * the NumPy memory passes around it (see repro/kernels/native.py, which
 * builds this file on first use and checks every argument before a call):
 *
 *   gather_*      one block of NHWC int8 images -> its (positions, kh*kw*C)
 *                 patch matrix in the float compute dtype, tap order
 *                 (kh, kw, C) as im2col_s8 writes it.  Taps in the padding
 *                 read the input zero point, so no padded copy of the input
 *                 is made.  Returns -1 when its one-row buffer cannot be
 *                 allocated, else 0.
 *   requantize_*  BLAS accumulator rows -> int8 rows: +init, *multiplier,
 *                 rint, +output zero point, clamp, store.  Every step runs
 *                 in double in the order accumulate_requantize's NumPy code
 *                 uses, so the results are bit-identical to it.  Build with
 *                 -ffp-contract=off and never -ffast-math, which would fuse
 *                 or reorder them.  The accumulator rows are `stride`
 *                 elements apart: one weight set's column slice of a
 *                 stacked product.  Contiguous rows (stride == channels)
 *                 run as one flat loop over a tile of rows, which keeps the
 *                 vector lanes full whatever the channel count.
 *
 * Each kernel comes in a float and a double variant, one per exact compute
 * dtype (exact_matmul_dtype).
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Elements of the per-channel vectors a contiguous epilogue repeats over a
   tile of rows (two 8 KiB stack buffers). */
#define TILE 1024

/* One output: every step in double, in the order of the NumPy epilogue. */
static inline int8_t requantize_one(double acc, double init, double multiplier,
                                    double offset, double lo, double hi)
{
    double v = (acc + init) * multiplier;
    v = rint(v) + offset;
    v = v < lo ? lo : (v > hi ? hi : v);
    return (int8_t)v;
}

#define DEFINE_KERNELS(SUFFIX, T)                                               \
    int gather_##SUFFIX(const int8_t *restrict x, int64_t n, int64_t in_h,     \
                        int64_t in_w, int64_t in_c, int64_t kh, int64_t kw,    \
                        int64_t sh, int64_t sw, int64_t ph, int64_t pw,        \
                        int64_t out_h, int64_t out_w, int32_t zero_point,      \
                        T *restrict cols)                                      \
    {                                                                          \
        const T pad = (T)zero_point;                                           \
        const int64_t run = kw * in_c; /* taps of one kernel row */            \
        const int64_t k = kh * run, width = (in_w + 2 * pw) * in_c;            \
        /* One input row widened once, with its padding columns: every       \
           window's kw*C taps of that row are then one contiguous copy. */     \
        T *padded = malloc(width * sizeof(T));                                 \
        if (padded == NULL)                                                    \
            return -1;                                                         \
        T *inner = padded + pw * in_c;                                         \
        for (int64_t t = 0; t < pw * in_c; ++t)                                \
            padded[t] = padded[width - 1 - t] = pad;                           \
        for (int64_t b = 0; b < n; ++b) {                                      \
            const int8_t *image = x + b * in_h * in_w * in_c;                  \
            for (int64_t oh = 0; oh < out_h; ++oh) {                           \
                T *rows = cols + (b * out_h + oh) * out_w * k;                 \
                for (int64_t i = 0; i < kh; ++i) {                             \
                    const int64_t h = oh * sh - ph + i;                        \
                    T *dst = rows + i * run;                                   \
                    if (h < 0 || h >= in_h) {                                  \
                        for (int64_t ow = 0; ow < out_w; ++ow, dst += k)       \
                            for (int64_t t = 0; t < run; ++t)                  \
                                dst[t] = pad;                                  \
                        continue;                                              \
                    }                                                          \
                    const int8_t *src = image + h * in_w * in_c;               \
                    for (int64_t t = 0; t < in_w * in_c; ++t)                  \
                        inner[t] = (T)src[t];                                  \
                    for (int64_t ow = 0; ow < out_w; ++ow, dst += k)           \
                        memcpy(dst, padded + ow * sw * in_c, run * sizeof(T)); \
                }                                                              \
            }                                                                  \
        }                                                                      \
        free(padded);                                                          \
        return 0;                                                              \
    }                                                                          \
                                                                               \
    void requantize_##SUFFIX(const T *restrict acc, int64_t rows,              \
                             int64_t channels, int64_t stride,                 \
                             const double *restrict init,                      \
                             const double *restrict multipliers,               \
                             int32_t output_zero_point, int32_t activation_min, \
                             int32_t activation_max, int8_t *restrict out)     \
    {                                                                          \
        const double offset = output_zero_point;                               \
        const double lo = activation_min, hi = activation_max;                 \
        const int64_t tile_rows = stride == channels && channels <= TILE       \
            ? (rows < TILE / channels ? rows : TILE / channels) : 0;           \
        if (tile_rows > 1) {                                                   \
            /* Contiguous rows: one flat loop over a tile of whole rows       \
               against the per-channel vectors repeated to the tile's width,  \
               so no row leaves a scalar channel tail. */                      \
            double tile_init[TILE], tile_multipliers[TILE];                    \
            const int64_t width = tile_rows * channels;                        \
            for (int64_t t = 0; t < width; ++t) {                              \
                tile_init[t] = init[t % channels];                             \
                tile_multipliers[t] = multipliers[t % channels];               \
            }                                                                  \
            const int64_t total = rows * channels;                             \
            for (int64_t s = 0; s < total; s += width) {                       \
                const int64_t m = total - s < width ? total - s : width;       \
                for (int64_t t = 0; t < m; ++t)                                \
                    out[s + t] = requantize_one(acc[s + t], tile_init[t],      \
                                                tile_multipliers[t], offset,   \
                                                lo, hi);                       \
            }                                                                  \
            return;                                                            \
        }                                                                      \
        for (int64_t r = 0; r < rows; ++r, acc += stride, out += channels)     \
            for (int64_t c = 0; c < channels; ++c)                             \
                out[c] = requantize_one(acc[c], init[c], multipliers[c],       \
                                        offset, lo, hi);                       \
    }

DEFINE_KERNELS(f32, float)
DEFINE_KERNELS(f64, double)
