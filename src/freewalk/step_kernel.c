/* The step kernel of freewalk.simulator: steps one walk per call.
 *
 * The cell of a uniform u is the count of thresholds grid[0 .. n_cuts - 1]
 * with u >= grid[c]; the move is read off the flat step tables at the
 * current row offset plus that cell.  The new letter, as a row offset, and
 * the time t + 1 go to depth sp + up: the new top for a push, the current
 * one for a replace, and one above the new top for a pop, which nothing
 * reads before a push overwrites it.  Only integer operations and double
 * comparisons are involved, so walks are bit-identical to the numpy
 * reference of the tests (built without -ffast-math).
 *
 * stack[0] must hold 0, the root's row offset; it is never written.
 * stack and wtime hold n + 1 entries; the final depth is returned.
 */
#include <stdint.h>

int64_t step_walk(const double *u, int64_t n, const double *grid, int64_t n_cuts,
                  const int32_t *up, const int32_t *dsp, const int32_t *let,
                  int32_t *stack, int32_t *wtime)
{
    int64_t sp = 0;
    for (int64_t t = 0; t < n; t++) {
        int32_t g = 0;
        for (int64_t c = 0; c < n_cuts; c++)
            g += u[t] >= grid[c];
        int32_t o = stack[sp] + g;
        int64_t w = sp + up[o];
        stack[w] = let[o];
        wtime[w] = (int32_t)(t + 1);
        sp += dsp[o];
    }
    return sp;
}
