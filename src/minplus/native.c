/* The two cubic loops of a minplus product, compiled once by native.py,
 * around one min-plus reduction, and the grouping of block pairs into the
 * rectangles both loops take.
 *
 * reduce_<T> reduces one rectangle (r0, r1, c0, c1, k0, k1): entry (i, j)
 * with r0 <= i < r1 and c0 <= j < c1 of the int64 array out gets min over
 * k0 <= k < k1 of a[i, k] + b[k, j], plus shift. The sums stay in T: the
 * callers hand operands whose every sum T holds (blocking.kernel_operands),
 * so no addition leaves its type.
 *
 * min_rects_<T> reduces a table of such rectangles of the product. Each
 * rectangle is first checked against the ledger done (one byte per entry
 * of out), which must be clear over it, and then marked there; the index
 * of the first rectangle that meets an entry written before is returned,
 * with nothing of it written, and -1 once every rectangle is.
 *
 * scan_<T> is the candidate scan of blocking (candidate_sets, child_sets,
 * CandidateSets.first_candidate) on the representative tables xa[bi, bk]
 * and xb[bk, bj] of the kernel operands, over a table of rectangles of
 * block pairs like min_rects'. A level scan (drawn NULL) first fills every
 * pair as unscanned (approx none, count 0, first nb, last -1) unless a
 * rectangle covers every pair; reduce_<T> then writes each rectangle's
 * least sums plus shift into approx, and a second pass reads each least
 * sum back as approx - shift and finds, with the threshold largest -
 * max(cap - least, 0), the number of block columns k0 <= bk < k1 whose sum
 * is at most it, and the first and the last of them (stats: the counts,
 * then the firsts, then the lasts, nb * nb each). Every term stays within
 * T, as the caller's docstring shows. A drawn scan takes the minima a
 * level scan wrote into approx and makes the second pass alone, over the
 * block columns the byte mask drawn sets: stats is then the nb * nb firsts,
 * each pair's smallest drawn candidate, and the pairs outside its
 * rectangles are left as they were.
 *
 * Both check every rectangle of their table against the arrays' bounds
 * (0 <= r0 < r1 <= rows, and so on) before they write anything, and return
 * REFUSED, with nothing written, if one is empty or out of bounds.
 *
 * rectangles groups the block pairs of a bool mask of an nb x nb grid,
 * each over its span lo..hi of block columns (int32 tables, read where the
 * mask is set), into such a table, every entry times scale: runs of
 * consecutive masked block columns in one block row, over the union of
 * their spans, stacked over consecutive block rows while the run that
 * follows, the next block row's first, has the same first column, length
 * and union. It returns the number of rectangles, writing them into table
 * unless that is NULL (so a first call sizes the table), or REFUSED if a
 * masked pair's span is empty or leaves 0..nb-1.
 *
 * reduce runs over ROWS rows and COLS columns of a rectangle at a time, the
 * scan's count pass over one block row and COLS block columns, each with a
 * running value per entry over contiguous rows of b (xb), a loop the
 * compiler vectorises. A drawn scan runs that pass once per run of
 * consecutive drawn columns, so no column is tested inside it: with the
 * test inside, GCC 12 did not unswitch the loop, and level scans ran 8-10%
 * slower. On x86-64 Linux with glibc (whose ifuncs pick a
 * build at load time), GCC 12 or later builds min_rects and scan for a
 * baseline, an AVX2 and an x86-64-v4 CPU, with reduce inlined into each, so
 * one cached library runs on any CPU at the speed of its vector unit; any
 * other compiler or platform gets one portable -O3 build. The arrays are
 * C-contiguous, and native.py checks every type and shape before a call.
 */

#include <stdint.h>
#include <string.h>

#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ >= 12 && defined(__x86_64__) && defined(__linux__) && \
    defined(__GLIBC__)
#define CLONES __attribute__((target_clones("default", "avx2", "arch=x86-64-v4")))
#define INLINE static inline __attribute__((always_inline))
#else
#define CLONES
#define INLINE static inline
#endif

#define ROWS 4
#define COLS 512
#define REFUSED (-2)

/* the first index from j on, below w, whose byte of row is set, or w; clear
 * bytes are skipped eight at a time */
static long next_set(const uint8_t *row, long j, long w)
{
    uint64_t eight;
    while (j + 8 <= w && (memcpy(&eight, row + j, 8), !eight))
        j += 8;
    while (j < w && !row[j])
        j++;
    return j;
}

static int bad_table(const int64_t *table, long n_rects, long rows, long cols, long inner)
{
    for (long t = 0; t < n_rects; t++) {
        const int64_t *r = table + 6 * t;
        if (r[0] < 0 || r[0] >= r[1] || r[1] > rows || r[2] < 0 || r[2] >= r[3] || r[3] > cols || r[4] < 0 ||
            r[4] >= r[5] || r[5] > inner)
            return 1;
    }
    return 0;
}

long rectangles(const uint8_t *mask, const int32_t *lo, const int32_t *hi, long nb, int64_t scale, int64_t *table)
{
    long count = 0, prev_bi = -2, prev_j0 = 0, prev_w = 0;
    int32_t prev_lo = 0, prev_hi = 0;
    for (long bi = 0; bi < nb; bi++) {
        const uint8_t *row = mask + bi * nb;
        for (long j = next_set(row, 0, nb); j < nb; j = next_set(row, j, nb)) {
            long j0 = j, p = bi * nb + j;
            int32_t run_lo = lo[p], run_hi = hi[p];
            for (; j < nb && row[j]; j++, p++) {
                if (lo[p] < 0 || lo[p] > hi[p] || hi[p] >= nb)
                    return REFUSED;
                run_lo = lo[p] < run_lo ? lo[p] : run_lo;
                run_hi = hi[p] > run_hi ? hi[p] : run_hi;
            }
            long w = j - j0;
            if (prev_bi == bi - 1 && prev_j0 == j0 && prev_w == w && prev_lo == run_lo && prev_hi == run_hi) {
                if (table)
                    table[6 * (count - 1) + 1] = (bi + 1) * scale;
            } else {
                if (table) {
                    int64_t *rect = table + 6 * count;
                    rect[0] = bi * scale;
                    rect[1] = (bi + 1) * scale;
                    rect[2] = j0 * scale;
                    rect[3] = j * scale;
                    rect[4] = run_lo * scale;
                    rect[5] = (run_hi + 1) * scale;
                }
                count++;
            }
            prev_bi = bi, prev_j0 = j0, prev_w = w, prev_lo = run_lo, prev_hi = run_hi;
        }
    }
    return count;
}

#define REDUCE(T, SUFFIX, TMAX)                                                                          \
    INLINE void reduce_##SUFFIX(const T *a, const T *b, const int64_t *rect, int64_t *out, long n_inner, \
                                long n_cols, int64_t shift)                                              \
    {                                                                                                    \
        T acc[ROWS][COLS];                                                                               \
        long r0 = rect[0], r1 = rect[1], c0 = rect[2], c1 = rect[3], k0 = rect[4], k1 = rect[5];         \
        for (long j0 = c0; j0 < c1; j0 += COLS) {                                                        \
            long w = c1 - j0 < COLS ? c1 - j0 : COLS;                                                    \
            for (long i0 = r0; i0 < r1; i0 += ROWS) {                                                    \
                long h = r1 - i0 < ROWS ? r1 - i0 : ROWS;                                                \
                for (long r = 0; r < h; r++)                                                             \
                    for (long j = 0; j < w; j++)                                                         \
                        acc[r][j] = TMAX;                                                                \
                if (h == ROWS) {                                                                         \
                    const T *a0 = a + i0 * n_inner, *a1 = a0 + n_inner, *a2 = a1 + n_inner,              \
                            *a3 = a2 + n_inner;                                                          \
                    for (long k = k0; k < k1; k++) {                                                     \
                        const T *bk = b + k * n_cols + j0;                                               \
                        T x0 = a0[k], x1 = a1[k], x2 = a2[k], x3 = a3[k];                                \
                        for (long j = 0; j < w; j++) {                                                   \
                            T y = bk[j];                                                                 \
                            T s0 = (T)(x0 + y), s1 = (T)(x1 + y), s2 = (T)(x2 + y), s3 = (T)(x3 + y);    \
                            acc[0][j] = s0 < acc[0][j] ? s0 : acc[0][j];                                 \
                            acc[1][j] = s1 < acc[1][j] ? s1 : acc[1][j];                                 \
                            acc[2][j] = s2 < acc[2][j] ? s2 : acc[2][j];                                 \
                            acc[3][j] = s3 < acc[3][j] ? s3 : acc[3][j];                                 \
                        }                                                                                \
                    }                                                                                    \
                } else {                                                                                 \
                    for (long r = 0; r < h; r++) {                                                       \
                        const T *ar = a + (i0 + r) * n_inner;                                            \
                        T *m = acc[r];                                                                   \
                        for (long k = k0; k < k1; k++) {                                                 \
                            const T *bk = b + k * n_cols + j0;                                           \
                            T x = ar[k];                                                                 \
                            for (long j = 0; j < w; j++) {                                               \
                                T s = (T)(x + bk[j]);                                                    \
                                m[j] = s < m[j] ? s : m[j];                                              \
                            }                                                                            \
                        }                                                                                \
                    }                                                                                    \
                }                                                                                        \
                for (long r = 0; r < h; r++) {                                                           \
                    int64_t *o = out + (i0 + r) * n_cols + j0;                                           \
                    for (long j = 0; j < w; j++)                                                         \
                        o[j] = (int64_t)acc[r][j] + shift;                                               \
                }                                                                                        \
            }                                                                                            \
        }                                                                                                \
    }

#define MIN_RECTS(T, SUFFIX)                                                                             \
    CLONES long min_rects_##SUFFIX(const T *a, const T *b, const int64_t *table, long n_rects,           \
                                   int64_t *out, uint8_t *done, long n_rows, long n_inner, long n_cols,  \
                                   int64_t shift)                                                        \
    {                                                                                                    \
        if (bad_table(table, n_rects, n_rows, n_cols, n_inner))                                          \
            return REFUSED;                                                                              \
        for (long t = 0; t < n_rects; t++) {                                                             \
            const int64_t *rect = table + 6 * t;                                                         \
            long r0 = rect[0], r1 = rect[1], c0 = rect[2], c1 = rect[3];                                 \
            for (long i = r0; i < r1; i++)                                                               \
                if (next_set(done + i * n_cols + c0, 0, c1 - c0) < c1 - c0)                              \
                    return t;                                                                            \
            for (long i = r0; i < r1; i++)                                                               \
                memset(done + i * n_cols + c0, 1, (size_t)(c1 - c0));                                    \
            reduce_##SUFFIX(a, b, rect, out, n_inner, n_cols, shift);                                    \
        }                                                                                                \
        return -1;                                                                                       \
    }

#define SCAN(T, SUFFIX)                                                                                  \
    CLONES long scan_##SUFFIX(const T *xa, const T *xb, long nb, const int64_t *table, long n_rects,     \
                              T cap, T largest, int64_t shift, int64_t none, int64_t *approx,            \
                              int32_t *stats, const uint8_t *drawn)                                      \
    {                                                                                                    \
        int32_t *lo = drawn ? stats : stats + nb * nb, *sizes = stats, *hi = lo + nb * nb;               \
        T thr[COLS];                                                                                     \
        int32_t cnt[COLS], first[COLS], last[COLS];                                                      \
        int fill = drawn == NULL;                                                                        \
        if (bad_table(table, n_rects, nb, nb, nb))                                                       \
            return REFUSED;                                                                              \
        for (long t = 0; t < n_rects; t++) {                                                             \
            const int64_t *rect = table + 6 * t;                                                         \
            fill &= !(rect[0] == 0 && rect[1] == nb && rect[2] == 0 && rect[3] == nb);                   \
        }                                                                                                \
        for (long p = 0; p < nb * nb && fill; p++) {                                                     \
            approx[p] = none;                                                                            \
            sizes[p] = 0;                                                                                \
            lo[p] = (int32_t)nb;                                                                         \
            hi[p] = -1;                                                                                  \
        }                                                                                                \
        for (long t = 0; t < n_rects; t++) {                                                             \
            const int64_t *rect = table + 6 * t;                                                         \
            long r0 = rect[0], r1 = rect[1], c0 = rect[2], c1 = rect[3], k0 = rect[4], k1 = rect[5];     \
            if (!drawn)                                                                                  \
                reduce_##SUFFIX(xa, xb, rect, approx, nb, nb, shift);                                    \
            for (long bi = r0; bi < r1; bi++) {                                                          \
                const T *ar = xa + bi * nb;                                                              \
                for (long j0 = c0; j0 < c1; j0 += COLS) {                                                \
                    long w = c1 - j0 < COLS ? c1 - j0 : COLS;                                            \
                    long p = bi * nb + j0;                                                               \
                    for (long j = 0; j < w; j++) {                                                       \
                        T d = (T)(cap - (T)(approx[p + j] - shift));                                     \
                        thr[j] = (T)(largest - (d > 0 ? d : 0));                                         \
                        cnt[j] = 0;                                                                      \
                        first[j] = (int32_t)nb;                                                          \
                        last[j] = -1;                                                                    \
                    }                                                                                    \
                    for (long ka = k0, kb = k1; ka < k1; ka = kb) {                                      \
                        if (drawn) { /* the next run ka .. kb - 1 of drawn columns */                    \
                            ka = kb = next_set(drawn, ka, k1);                                           \
                            while (kb < k1 && drawn[kb])                                                 \
                                kb++;                                                                    \
                        }                                                                                \
                        for (long k = ka; k < kb; k++) {                                                 \
                            const T *bk = xb + k * nb + j0;                                              \
                            T x = ar[k];                                                                 \
                            int32_t kk = (int32_t)k;                                                     \
                            for (long j = 0; j < w; j++) {                                               \
                                int32_t ok = (T)(x + bk[j]) <= thr[j];                                   \
                                cnt[j] += ok;                                                            \
                                first[j] = ok && kk < first[j] ? kk : first[j];                          \
                                last[j] = ok ? kk : last[j];                                             \
                            }                                                                            \
                        }                                                                                \
                    }                                                                                    \
                    for (long j = 0; j < w; j++) {                                                       \
                        lo[p + j] = first[j];                                                            \
                        if (!drawn)                                                                      \
                            sizes[p + j] = cnt[j], hi[p + j] = last[j];                                  \
                    }                                                                                    \
                }                                                                                        \
            }                                                                                            \
        }                                                                                                \
        return 0;                                                                                        \
    }

REDUCE(int16_t, i16, INT16_MAX)
REDUCE(int32_t, i32, INT32_MAX)
REDUCE(int64_t, i64, INT64_MAX)
MIN_RECTS(int16_t, i16)
MIN_RECTS(int32_t, i32)
MIN_RECTS(int64_t, i64)
SCAN(int16_t, i16)
SCAN(int32_t, i32)
SCAN(int64_t, i64)
