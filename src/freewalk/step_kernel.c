/* The step kernel of freewalk.simulator: draws each walk's uniforms and steps
 * every walk of a span in one call.
 *
 * Uniforms.  Each walk owns the counter-based stream Philox4x64-10 (Salmon,
 * Moraes, Dror & Shaw, "Parallel random numbers: as easy as 1, 2, 3",
 * SC 2011) keyed by the words (stream, master seed).  Counter word 0 counts
 * blocks from 1, carrying into the higher words; each block gives four
 * 64-bit outputs in order, and an output x becomes the double
 * (x >> 11) * 2^-53.  That is numpy's Philox with the 128-bit key
 * (seed << 64) | stream and its random(), bit for bit.
 *
 * Steps.  The cell of a uniform u is the count of thresholds
 * grid[0 .. n_cuts - 1] with u >= grid[c]; the move is read off the flat step
 * tables at the current row offset plus that cell.  The new letter, as a row
 * offset, and the time t + 1 go to depth sp + up: the new top for a push, the
 * current one for a replace, and one above the new top for a pop, which
 * nothing reads before a push overwrites it.  Only integer operations and
 * double comparisons are involved, so walks are bit-identical to the numpy
 * reference of the tests (built without -ffast-math).
 *
 * Output.  After its last step a walk's stack holds its final word: one loop
 * adds the letters at depths 1 .. sp to the walk's letter counts.  Given run
 * buffers, the walk's depths 0 .. sp and their write times are also copied
 * out as one run; given none, the counts and the final depth are all that is
 * written, which is all the endpoint statistics need.
 */
#include <stdint.h>

typedef unsigned __int128 u128;

typedef struct {
    uint64_t key[2], ctr[4], out[4];
} philox;

/* The next block of four outputs into p->out. */
static inline void philox_block(philox *p)
{
    if (++p->ctr[0] == 0 && ++p->ctr[1] == 0 && ++p->ctr[2] == 0)
        ++p->ctr[3];
    uint64_t c0 = p->ctr[0], c1 = p->ctr[1], c2 = p->ctr[2], c3 = p->ctr[3];
    uint64_t k0 = p->key[0], k1 = p->key[1];
    for (int r = 0; r < 10; r++) {
        if (r > 0) {
            k0 += 0x9E3779B97F4A7C15u;
            k1 += 0xBB67AE8584CAA73Bu;
        }
        u128 p0 = (u128)0xD2E7470EE14C6C93u * c0;
        u128 p1 = (u128)0xCA5A826395121157u * c2;
        c0 = (uint64_t)(p1 >> 64) ^ c1 ^ k0;
        c1 = (uint64_t)p1;
        c2 = (uint64_t)(p0 >> 64) ^ c3 ^ k1;
        c3 = (uint64_t)p0;
    }
    p->out[0] = c0;
    p->out[1] = c1;
    p->out[2] = c2;
    p->out[3] = c3;
}

/* Uniform t of the stream, drawn in order from t = 0. */
static inline double next_uniform(philox *p, int64_t t)
{
    if (t % 4 == 0)
        philox_block(p);
    return (double)(p->out[t % 4] >> 11) * (1.0 / 9007199254740992.0);
}

/* The first n uniforms of one stream. */
void fill_uniforms(uint64_t seed, uint64_t stream, int64_t n, double *out)
{
    philox p = {{stream, seed}, {0}, {0}};
    for (int64_t t = 0; t < n; t++)
        out[t] = next_uniform(&p, t);
}

/* Steps walks first .. n_walks - 1, walk m on stream streams[m], n steps each.
 *
 * stack and wtime are scratch of n + 1 entries, stack[0] = 0 (the root's row
 * offset, never written).  Walk m's final depth goes to depth[m], and row m
 * of counts, width entries zeroed by the caller, gains the count of each
 * letter code (row offset divided by row) at depths 1 .. depth[m].
 *
 * With codes NULL, no run is written: every walk is stepped and counted, and
 * n_walks is returned.  Otherwise walk m's depths 0 .. depth[m] go to codes
 * (the letter codes, which the step tables keep within int16) and times from
 * entry filled on.  A walk that would pass entry capacity is not written or
 * counted at all: its index is returned, and the caller grows the buffers
 * and resumes from it.  Otherwise n_walks is returned.
 */
int64_t step_span(const uint64_t *streams, int64_t n_walks, uint64_t seed, int64_t n,
                  const double *grid, int64_t n_cuts, const int32_t *up, const int32_t *dsp,
                  const int32_t *let, int32_t row, int32_t *stack, int32_t *wtime,
                  int64_t *depth, int32_t *counts, int64_t width, int64_t first,
                  int16_t *codes, int32_t *times, int64_t filled, int64_t capacity)
{
    for (int64_t m = first; m < n_walks; m++) {
        philox p = {{streams[m], seed}, {0}, {0}};
        int64_t sp = 0;
        for (int64_t t = 0; t < n; t++) {
            double u = next_uniform(&p, t);
            int32_t g = 0;
            for (int64_t c = 0; c < n_cuts; c++)
                g += u >= grid[c];
            int32_t o = stack[sp] + g;
            int64_t w = sp + up[o];
            stack[w] = let[o];
            wtime[w] = (int32_t)(t + 1);
            sp += dsp[o];
        }
        if (codes) {
            if (filled + sp + 1 > capacity)
                return m;
            for (int64_t k = 0; k <= sp; k++) {
                codes[filled + k] = (int16_t)(stack[k] / row);
                times[filled + k] = wtime[k];
            }
            filled += sp + 1;
        }
        for (int64_t k = 1; k <= sp; k++)
            counts[m * width + stack[k] / row]++;
        depth[m] = sp;
    }
    return n_walks;
}
