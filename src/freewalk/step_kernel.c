/* The compiled passes of freewalk.simulator: the step kernel, which draws each
 * walk's uniforms and steps a batch of walks on the calling thread; the renewal
 * decomposition of the walks' runs into blocks; and the per-walk sums of a
 * block pool.  Also the row join of freewalk.cli's CSV writer (join_rows, at
 * the end).
 *
 * Uniforms.  Each walk owns the counter-based stream Philox4x64-10 (Salmon,
 * Moraes, Dror & Shaw, "Parallel random numbers: as easy as 1, 2, 3",
 * SC 2011) keyed by the words (stream, master seed).  Block b, counted from
 * 1, is the ten rounds on the counter (b, 0, 0, 0), computed from b alone by
 * philox_at; the counter's higher words stay 0, as a walk of n < 2^31 steps
 * draws far fewer than 2^64 blocks.  Each block gives four 64-bit outputs in
 * order, and an output x becomes the double (x >> 11) * 2^-53.  That is
 * numpy's Philox with the 128-bit key (seed << 64) | stream and its
 * random(), bit for bit.
 *
 * Steps.  The cell of a uniform u is the count of thresholds
 * grid[0 .. n_cuts - 1] with u >= grid[c]; the move is read off the flat step
 * tables at the current row offset plus that cell.  The new letter, as a row
 * offset, and the time t + 1 go to depth sp + up: the new top for a push, the
 * current one for a replace, and one above the new top for a pop, which
 * nothing reads before a push overwrites it.  Only integer operations and
 * double comparisons are involved, so walks are bit-identical to the numpy
 * reference of the tests (built without -ffast-math).  Each step waits on
 * the one before it through a chain of dependent loads, so step_span steps
 * two walks in lockstep, one per lane, and one walk's chain fills the time
 * the other's leaves idle; each lane draws a block of four uniforms for its
 * next four steps.
 *
 * Output.  After its last step a walk's stack holds its final word: one loop
 * adds the letters at depths 1 .. sp to the walk's letter counts.  Given run
 * buffers of some capacity, the walk's depths 0 .. sp and their write times
 * are also copied out as one run; given a capacity of 0, the counts and the
 * final depth are all that is written, which is all the endpoint statistics
 * need.
 *
 * Blocks.  decompose_walks checks each walk's run and reads its renewal
 * start, block count and censored exits off it, and decompose_blocks writes
 * the blocks.  walk_summary adds each block's rewards to its walk's sums in
 * block order, the order of numpy's bincount, so every sum is numpy's bit for
 * bit.  The build passes -ffp-contract=off, so no product is fused into a sum
 * where numpy rounds twice.
 *
 * Every array is passed as a typed pointer, which freewalk.simulator declares
 * with the array's dtype; a parameter the function writes is not const.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef unsigned __int128 u128;

/* Block `block` (counted from 1) of the stream keyed by (k0, k1): its four
 * outputs, by the ten rounds of Philox4x64-10, unrolled. */
static inline void philox_at(uint64_t k0, uint64_t k1, uint64_t block, uint64_t out[4])
{
    uint64_t c0 = block, c1 = 0, c2 = 0, c3 = 0;
#pragma GCC unroll 10
    for (int r = 0; r < 10; r++) {
        u128 p0 = (u128)0xD2E7470EE14C6C93u * c0;
        u128 p1 = (u128)0xCA5A826395121157u * c2;
        c0 = (uint64_t)(p1 >> 64) ^ c1 ^ k0;
        c1 = (uint64_t)p1;
        c2 = (uint64_t)(p0 >> 64) ^ c3 ^ k1;
        c3 = (uint64_t)p0;
        k0 += 0x9E3779B97F4A7C15u;
        k1 += 0xBB67AE8584CAA73Bu;
    }
    out[0] = c0;
    out[1] = c1;
    out[2] = c2;
    out[3] = c3;
}

/* The uniform in [0, 1) of one 64-bit output. */
static inline double unit(uint64_t x)
{
    return (double)(x >> 11) * (1.0 / 9007199254740992.0);
}

/* The first n uniforms of one stream. */
void fill_uniforms(uint64_t seed, uint64_t stream, int64_t n, double *out)
{
    uint64_t x[4];
    for (int64_t t = 0; t < n; t++) {
        if (t % 4 == 0)
            philox_at(stream, seed, (uint64_t)(t / 4) + 1, x);
        out[t] = unit(x[t % 4]);
    }
}

/* Steps walks first .. n_walks - 1, walk m on stream streams[m], n steps each,
 * two at a time: walks m and m + 1 run in lockstep in lanes 0 and 1, so that
 * each walk's chain of dependent loads overlaps the other's.  An odd last
 * walk runs in lane 0, and lane 1 repeats it; that repeat is dropped.
 *
 * Each lane keeps a stack of row offsets and the step that last wrote each
 * depth, n + 1 entries of each, in one zeroed allocation of the call; depth
 * 0 holds the root's row offset 0 and is never written, and the walks of a
 * lane share them, as a walk reads only depth 0 and the depths it pushed
 * to.  Walk m's final depth goes to depth[m], and row m of counts, width
 * entries zeroed by the caller, gains the count of each letter code (row
 * offset divided by row) at depths 1 .. depth[m].
 *
 * With capacity 0, no run is written: every walk is stepped and counted, and
 * n_walks is returned.  Otherwise, after the two lanes' steps, each lane's
 * walk is written and counted in walk order: its depths 0 .. depth[m] go to
 * codes (the letter codes, which the step tables keep within int16) and
 * times from entry filled on.  A walk that would pass entry capacity is not
 * written or counted at all: its index, m or m + 1, is returned, and the
 * caller grows the buffers and resumes from it.  Otherwise n_walks is
 * returned, or -1 when the lanes' stacks cannot be allocated.
 */
int64_t step_span(const uint64_t *streams, int64_t n_walks, uint64_t seed, int64_t n,
                  const double *grid, int64_t n_cuts, const int32_t *up, const int32_t *dsp,
                  const int32_t *let, int32_t row, int64_t *depth, int32_t *counts,
                  int64_t width, int64_t first, int16_t *codes, int32_t *times,
                  int64_t filled, int64_t capacity)
{
    int32_t *scratch = calloc(4 * ((size_t)n + 1), sizeof(int32_t));
    if (scratch == NULL)
        return -1;
    int32_t *st[2] = {scratch, scratch + n + 1};
    int32_t *wt[2] = {scratch + 2 * (n + 1), scratch + 3 * (n + 1)};
    int64_t next = n_walks;
    for (int64_t m = first; m < n_walks; m += 2) {
        int lanes = m + 1 < n_walks ? 2 : 1;
        int64_t walk[2] = {m, m + lanes - 1};
        int64_t sp[2] = {0, 0};
        uint64_t x[2][4];
        for (int64_t b = 0; b < n; b += 4) {
            for (int l = 0; l < 2; l++)
                philox_at(streams[walk[l]], seed, (uint64_t)(b / 4) + 1, x[l]);
            int64_t end = b + 4 < n ? b + 4 : n;
            for (int64_t t = b; t < end; t++) {
                double u[2] = {unit(x[0][t - b]), unit(x[1][t - b])};
                int32_t g[2] = {0, 0};
                for (int64_t c = 0; c < n_cuts; c++)
                    for (int l = 0; l < 2; l++)
                        g[l] += u[l] >= grid[c];
                for (int l = 0; l < 2; l++) {
                    int32_t o = st[l][sp[l]] + g[l];
                    int64_t w = sp[l] + up[o];
                    st[l][w] = let[o];
                    wt[l][w] = (int32_t)(t + 1);
                    sp[l] += dsp[o];
                }
            }
        }
        for (int l = 0; l < lanes; l++) {
            if (capacity > 0) {
                if (filled + sp[l] + 1 > capacity) {
                    next = walk[l];
                    goto done;
                }
                for (int64_t k = 0; k <= sp[l]; k++) {
                    codes[filled + k] = (int16_t)(st[l][k] / row);
                    times[filled + k] = wt[l][k];
                }
                filled += sp[l] + 1;
            }
            for (int64_t k = 1; k <= sp[l]; k++)
                counts[walk[l] * width + st[l][k] / row]++;
            depth[walk[l]] = sp[l];
        }
    }
done:
    free(scratch);
    return next;
}

/* Errors of the decomposition, raised by its caller with their messages. */
enum { BAD_CODE = -1, NOT_ALTERNATING = -2, NOT_INCREASING = -3 };

/* First pass of the renewal decomposition: the per-walk arrays of n_walks
 * runs, laid out as step_span writes them (walk m's depths 0 .. depth[m],
 * one run after another, in codes and times).  Returns the total number of
 * blocks, or the first error in the order BAD_CODE, NOT_ALTERNATING,
 * NOT_INCREASING, the order of the checks over the whole batch.
 *
 * Depth 0 must hold the root's code 0 and every depth k >= 1 a letter's code
 * in 1 .. n_codes - 1, in the other factor than depth k - 1 and written
 * later.  So letters alternate factors from depth 1 on, and every appended
 * pair decompose_blocks reads lies in factors 2 and 1.  The level-k
 * exit is censored when its time exceeds cutoff; the walk's renewal levels
 * are tau, tau + 2, ... up to its last confirmed level, tau being 1 when
 * depth 1 lies in factor 1 and 2 otherwise (0 for an empty word).  A walk
 * with no confirmed renewal level keeps t0_time -1 and t0_dist nan.
 */
int64_t decompose_walks(int64_t n_walks, const int64_t *depth, const int16_t *codes,
                        const int32_t *times, const int8_t *factor, int64_t n_codes,
                        const double *dist, int64_t cutoff, double nan, int8_t *tau,
                        int64_t *t0_time, double *t0_dist, int64_t *n_blocks,
                        int64_t *censored)
{
    int64_t total = 0, s = 0;
    int bad_code = 0, bad_factor = 0, bad_time = 0;
    for (int64_t m = 0; m < n_walks; s += depth[m] + 1, m++) {
        const int16_t *c = codes + s;
        const int32_t *w = times + s;
        int64_t sp = depth[m], late = 0;
        bad_code |= c[0] != 0;
        for (int64_t k = 1; k <= sp; k++)
            bad_code |= c[k] < 1 || c[k] >= n_codes;
        if (bad_code)
            return BAD_CODE;
        for (int64_t k = 1; k <= sp; k++) {
            bad_factor |= factor[c[k]] == factor[c[k - 1]];
            bad_time |= w[k] <= w[k - 1];
            late += w[k] > cutoff;
        }
        int8_t t = sp == 0 ? 0 : factor[c[1]] == 1 ? 1 : 2;
        int64_t confirmed = sp - late;
        tau[m] = t;
        censored[m] = late;
        if (t > 0 && confirmed >= t) {
            t0_time[m] = w[t];
            t0_dist[m] = dist[c[t]] + (t == 2 ? dist[c[t - 1]] : 0.0);
            n_blocks[m] = (confirmed - t) / 2;
        } else {
            t0_time[m] = -1;
            t0_dist[m] = nan;
            n_blocks[m] = 0;
        }
        total += n_blocks[m];
    }
    return bad_factor ? NOT_ALTERNATING : bad_time ? NOT_INCREASING : total;
}

/* Second pass: the blocks of every walk, walk after walk, from the per-walk
 * arrays of decompose_walks.  Block j of walk m ends at level tau + 2j and
 * appends the pair of letters (first, second) at levels tau + 2j - 1 and
 * tau + 2j, in factors 2 and 1; its increment is the time between the exits
 * at levels tau + 2j - 2 and tau + 2j.
 */
void decompose_blocks(int64_t n_walks, const int64_t *depth, const int16_t *codes,
                      const int32_t *times, const int8_t *tau, const int64_t *n_blocks,
                      int64_t *walk, int64_t *index, int64_t *delta_t, int16_t *first,
                      int16_t *second)
{
    int64_t b = 0, s = 0;
    for (int64_t m = 0; m < n_walks; s += depth[m] + 1, m++)
        for (int64_t j = 1; j <= n_blocks[m]; j++, b++) {
            int64_t at = s + tau[m] + 2 * j;
            walk[b] = m;
            index[b] = j;
            delta_t[b] = (int64_t)times[at] - times[at - 2];
            first[b] = codes[at - 1];
            second[b] = codes[at];
        }
}

/* Per-walk sums of a block pool: out[k][m] holds, for statistic k of
 * n_stats, walk m's sums of r, r * dt, r * r, dt, dt * dt over its blocks in
 * block order, and count[m]; r is the block's reward, rewards[k][first] +
 * rewards[k][second], and dt its increment.  Returns 0, or -1 when a block's
 * walk or letter code lies outside the pool, before anything is written.
 */
int64_t walk_summary(int64_t n_blocks, const int64_t *walk, const int64_t *delta_t,
                     const int16_t *first, const int16_t *second, int64_t n_stats,
                     const double *rewards, int64_t n_codes, int64_t n_walks,
                     const int64_t *count, double *out)
{
    for (int64_t b = 0; b < n_blocks; b++)
        if (walk[b] < 0 || walk[b] >= n_walks || first[b] < 0 || first[b] >= n_codes ||
            second[b] < 0 || second[b] >= n_codes)
            return -1;
    memset(out, 0, (size_t)(n_stats * n_walks * 6) * sizeof(double));
    for (int64_t b = 0; b < n_blocks; b++) {
        double dt = (double)delta_t[b];
        for (int64_t k = 0; k < n_stats; k++) {
            const double *row = rewards + k * n_codes;
            double r = row[first[b]] + row[second[b]];
            double *o = out + (k * n_walks + walk[b]) * 6;
            o[0] += r;
            o[1] += r * dt;
            o[2] += r * r;
            o[3] += dt;
            o[4] += dt * dt;
        }
    }
    for (int64_t k = 0; k < n_stats; k++)
        for (int64_t m = 0; m < n_walks; m++)
            out[(k * n_walks + m) * 6 + 5] = (double)count[m];
    return 0;
}

/* Cell r of an index column of width bytes per entry, an unsigned integer. */
static inline int64_t index_at(const void *index, int64_t width, int64_t r)
{
    switch (width) {
    case 1:
        return ((const uint8_t *)index)[r];
    case 2:
        return ((const uint16_t *)index)[r];
    case 4:
        return ((const uint32_t *)index)[r];
    default:
        return (int64_t)((const uint64_t *)index)[r];
    }
}

#define JOIN_SLACK 16 /* bytes blob and out hold past their last field */

/* Rows lo .. hi - 1 of a table, joined into out; returns the bytes written.
 *
 * Column c's cell in row r is field first[c] + index[c][r], an entry of
 * width[c] bytes.  Field f is the bytes blob[start[f] .. start[f + 1] - 1],
 * its separator included, so a row is its fields one after another.  out
 * holds at least the rows' longest fields summed.  A field of at most
 * JOIN_SLACK bytes is copied as JOIN_SLACK bytes, one fixed-size move in
 * place of a call, and the next field overwrites what it copied past its
 * end; so blob and out both end in JOIN_SLACK spare bytes.
 */
int64_t join_rows(int64_t lo, int64_t hi, int64_t n_cols, const void *const *index,
                  const int64_t *width, const int64_t *first, const int64_t *start,
                  const uint8_t *blob, uint8_t *out)
{
    uint8_t *p = out;
    for (int64_t r = lo; r < hi; r++)
        for (int64_t c = 0; c < n_cols; c++) {
            int64_t f = first[c] + index_at(index[c], width[c], r);
            int64_t n = start[f + 1] - start[f];
            if (n <= JOIN_SLACK)
                memcpy(p, blob + start[f], JOIN_SLACK);
            else
                memcpy(p, blob + start[f], (size_t)n);
            p += n;
        }
    return p - out;
}
