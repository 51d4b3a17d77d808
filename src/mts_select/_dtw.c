/* DTW for a list of pairs of series, one row of the dynamic program at a time.

   Built and loaded by distance.py, which falls back to its numpy sweep when
   this file cannot be compiled or loaded, or when it disagrees with that sweep
   on a fixed self-check. Every cell is fabs(s_i - t_j) + min(up, diag, left)
   in IEEE double, as in the numpy sweep; the costs are >= +0.0 and the corner
   is +0.0, so no NaN or -0.0 occurs and the order of the mins does not change
   a bit. Cells outside the band |i - j| <= max(window, |a - b|) stay INFINITY.

   values: every series, concatenated; series k is values[offset[k]] onward,
   length[k] long. Pair p is (first[p], second[p]); its distance goes to
   out[p]. rows is scratch for 2 * (longest series + 1) doubles. */
#include <math.h>
#include <stdint.h>

void dtw_pairs(const double *values, const int64_t *offset, const int64_t *length,
               const int64_t *first, const int64_t *second, int64_t pairs,
               int64_t window, double *out, double *rows)
{
    for (int64_t p = 0; p < pairs; p++) {
        const double *s = values + offset[first[p]], *t = values + offset[second[p]];
        int64_t a = length[first[p]], b = length[second[p]];
        int64_t gap = a > b ? a - b : b - a, w = window > gap ? window : gap;
        double *prev = rows, *cur = rows + b + 1, *swap;
        prev[0] = 0.0;
        for (int64_t j = 1; j <= b; j++)
            prev[j] = INFINITY;
        for (int64_t i = 1; i <= a; i++) {
            int64_t lo = i - w > 1 ? i - w : 1, hi = i + w < b ? i + w : b;
            double si = s[i - 1];
            cur[lo - 1] = INFINITY;
            for (int64_t j = lo; j <= hi; j++) {
                double best = prev[j] < prev[j - 1] ? prev[j] : prev[j - 1];
                best = cur[j - 1] < best ? cur[j - 1] : best;
                cur[j] = fabs(si - t[j - 1]) + best;
            }
            if (hi < b)
                cur[hi + 1] = INFINITY;
            swap = prev, prev = cur, cur = swap;
        }
        out[p] = prev[b];
    }
}
