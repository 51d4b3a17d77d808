/* DTW for a list of pairs of series, one row of the dynamic program at a time.

   Built and loaded by distance.py, which falls back to its numpy sweep when
   this file cannot be compiled or loaded, or when it disagrees with that sweep
   on a fixed self-check. Every cell is fabs(s_i - t_j) + min(up, diag, left)
   in IEEE double, as in the numpy sweep; the costs are >= +0.0 and the corner
   is +0.0, so no NaN or -0.0 occurs and the order of the mins does not change
   a bit. Cells outside the band |i - j| <= max(window, |a - b|) stay INFINITY.

   A single pair's row waits on each cell's left neighbour, so LANES pairs of
   one shape (a, b) that sit next to each other in the list are run side by
   side: their series are gathered lane-contiguously (S[i * LANES + l],
   T[j * LANES + l]) and so are the two rows ([j * LANES + l]), and the lane
   loop over l is plain element-wise code the compiler turns into SIMD. Each
   lane does the same operations on the same values as the one-pair loop, so
   the bits do not change. Pairs that do not fill a group run one at a time.

   values: every series, concatenated; series k is values[offset[k]] onward,
   length[k] long. Pair p is (first[p], second[p]); its distance goes to
   out[p]. rows is scratch for LANES * (4 * longest series + 2) doubles. */
#include <math.h>
#include <stdint.h>

#define LANES 8

static double dtw_one(const double *s, int64_t a, const double *t, int64_t b,
                      int64_t w, double *rows)
{
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
    return prev[b];
}

/* Cell j of one row for every lane: the one-pair loop's body, lane by lane. */
static void lane_cell(const double *restrict si, const double *restrict tj,
                      const double *restrict up, const double *restrict diag,
                      const double *restrict left, double *restrict cell)
{
    for (int l = 0; l < LANES; l++) {
        double best = up[l] < diag[l] ? up[l] : diag[l];
        best = left[l] < best ? left[l] : best;
        cell[l] = fabs(si[l] - tj[l]) + best;
    }
}

static void fill(double *row, double value)
{
    for (int l = 0; l < LANES; l++)
        row[l] = value;
}

/* LANES pairs of one shape: the one-pair loop with every cell widened to LANES. */
static void dtw_lanes(const double *S, int64_t a, const double *T, int64_t b,
                      int64_t w, double *rows, double *out)
{
    double *prev = rows, *cur = rows + LANES * (b + 1), *swap;
    fill(prev, 0.0);
    for (int64_t j = 1; j <= b; j++)
        fill(prev + LANES * j, INFINITY);
    for (int64_t i = 1; i <= a; i++) {
        int64_t lo = i - w > 1 ? i - w : 1, hi = i + w < b ? i + w : b;
        const double *si = S + LANES * (i - 1);
        fill(cur + LANES * (lo - 1), INFINITY);
        for (int64_t j = lo; j <= hi; j++)
            lane_cell(si, T + LANES * (j - 1), prev + LANES * j, prev + LANES * (j - 1),
                      cur + LANES * (j - 1), cur + LANES * j);
        if (hi < b)
            fill(cur + LANES * (hi + 1), INFINITY);
        swap = prev, prev = cur, cur = swap;
    }
    for (int l = 0; l < LANES; l++)
        out[l] = prev[LANES * b + l];
}

/* The series of one side of pairs p .. p + LANES - 1, n long, lane-contiguous. */
static void gather(const double *values, const int64_t *offset, const int64_t *side,
                   int64_t n, double *lanes)
{
    for (int l = 0; l < LANES; l++) {
        const double *x = values + offset[side[l]];
        for (int64_t i = 0; i < n; i++)
            lanes[LANES * i + l] = x[i];
    }
}

void dtw_pairs(const double *values, const int64_t *offset, const int64_t *length,
               const int64_t *first, const int64_t *second, int64_t pairs,
               int64_t window, double *out, double *rows)
{
    for (int64_t p = 0; p < pairs;) {
        int64_t a = length[first[p]], b = length[second[p]];
        int64_t gap = a > b ? a - b : b - a, w = window > gap ? window : gap;
        int64_t same = 1;
        while (same < LANES && p + same < pairs && length[first[p + same]] == a
               && length[second[p + same]] == b)
            same++;
        if (same == LANES) {
            double *S = rows, *T = S + LANES * a;
            gather(values, offset, first + p, a, S);
            gather(values, offset, second + p, b, T);
            dtw_lanes(S, a, T, b, w, T + LANES * b, out + p);
            p += LANES;
        } else {
            for (int64_t end = p + same; p < end; p++)
                out[p] = dtw_one(values + offset[first[p]], a, values + offset[second[p]], b,
                                 w, rows);
        }
    }
}
