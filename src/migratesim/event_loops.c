/* The compiled code of migratesim: the event loops of ctmc.simulate_open
   and ctmc.simulate_closed, the sojourn window sum of
   experiments.measure_sojourns, and the forward elimination of
   meanfield._gauss_solve. Each gives the bits of the Python it replaced.

   Both consume CPython's Mersenne Twister stream draw for draw, so a run
   is bit-identical to one driven by random.Random(seed):

   - the generator is seeded as Random(seed) seeds it: init_by_array over
     the 32-bit words of abs(seed), least significant first, from the
     words of init_genrand(19650218), which are the same for every seed,
     so a call that seeds many runs computes them once;
   - random() is genrand_res53, (a * 2**26 + b) / 2**53 from two words;
   - getrandbits(k) is word >> (32 - k) for k <= 32; for 32 < k <= 64 the
     low word is drawn first, then the high word >> (64 - k); and
     randrange(n) is getrandbits(n.bit_length()) until below n, as
     _randbelow draws it;
   - expovariate(x) is -log(1.0 - random()) / x with the libm log.

   The open loop refreshes its busy service rate with CPython's math.fsum,
   and sojourn_window's total is that fsum too: one copy of its partials
   (fsum_add, fsum_round) serves both. gauss_eliminate does numpy's array
   operations in numpy's order; the back substitution stays numpy, whose
   dot products do not sum in plain order.

   The closed loop counts its accepted pairs once, at the start, and then
   updates the count by an exact integer change per move (pairs_delta),
   as the n-fold way of Bortz, Kalos and Lebowitz (J. Comput. Phys. 17,
   1975) keeps its total rate: the count, and so every waiting time, is
   the one a fresh count would give. Each move audits the count: a move
   it draws must be an accepted pair, so each lowers the sum of squared
   occupancies by at least 2 and a wrong count ends the run with an error,
   never in an endless loop. One call runs a list of replications of one
   cell, one per seed, so their Python costs one call and ctypes releases
   the GIL for all of them.

   Each call keeps its generator in an mt_stream on its own stack, and
   the file holds no static data, so calls may run on several threads at
   once. The stream twists 624 words at a time and tempers them in the
   same pass, so a draw is an inline read of the tempered block.

   Build with -ffp-contract=off and without -ffast-math or -march, so that
   no fused multiply-add or reordering changes a rounding; -O3 keeps to
   that, and the build stops unless each double operation rounds to
   double (FLT_EVAL_METHOD 0), so fsum needs no volatile. Every open buffer
   grows on demand; open_free releases the outputs. ctmc.step is the
   per-event reference that the open loop inlines. */

#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* every double operation rounds to double, as CPython's do; an x87 build
   would carry extra precision between them */
#if FLT_EVAL_METHOD != 0
#error "event_loops.c needs FLT_EVAL_METHOD == 0"
#endif

#define MT_N 624
#define MT_M 397

enum { OK, NO_MEMORY, EMPTY_PICK, MAX_ROSE, MAX_COUNT_ROSE, PAIRS_WRONG };

typedef struct {
    /* inputs */
    int64_t m;
    const double *cum_arr;  /* running sums of the arrival rates */
    const double *svc;      /* service rates */
    double beta;            /* resample rate */
    int64_t rls;            /* 1: rls, 0: rlo */
    int64_t dests;          /* a resample aims at randrange(dests), skipping
                               its origin when dests < m */
    int64_t cap;            /* occupancy cap, -1 for none */
    double horizon;
    double sample_dt;       /* 0: no sample grid */
    int64_t track;          /* keep one sojourn row per arrival */
    const uint32_t *key;    /* the words of abs(seed), least significant */
    int64_t key_len;        /* first; one word for seed 0 */
    int64_t *counts;        /* m occupancies: the start, then the end */
    /* outputs, allocated here */
    double *times;          /* n_rows sample times */
    int64_t *snaps;         /* n_rows x m occupancies */
    int64_t n_rows;
    double *sojourns;       /* n_sojourns x (arrival, departure or NaN) */
    int64_t n_sojourns;
    int64_t tallies[7];     /* in Trajectory.event_counts order */
} open_run;

/* The Mersenne Twister of one run: its state, and the state's words
   already tempered, of which block[index] is the next draw. */
typedef struct {
    uint32_t state[MT_N];
    uint32_t block[MT_N];
    int index;
} mt_stream;

#define INLINE static inline __attribute__((always_inline))

/* Twist the state once and temper all of it into the block, as in
   Matsumoto & Nishimura (ACM TOMACS 8(1), 1998); -(y & 1) masks in the
   twist's constant without a branch or a table. */
static __attribute__((noinline)) void mt_refill(mt_stream *g)
{
    uint32_t *mt = g->state, y;
    int k;

    for (k = 0; k < MT_N - MT_M; k++) {
        y = (mt[k] & 0x80000000U) | (mt[k + 1] & 0x7fffffffU);
        mt[k] = mt[k + MT_M] ^ (y >> 1) ^ (-(y & 0x1U) & 0x9908b0dfU);
    }
    for (; k < MT_N - 1; k++) {
        y = (mt[k] & 0x80000000U) | (mt[k + 1] & 0x7fffffffU);
        mt[k] = mt[k + (MT_M - MT_N)] ^ (y >> 1) ^ (-(y & 0x1U) & 0x9908b0dfU);
    }
    y = (mt[MT_N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
    mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ (-(y & 0x1U) & 0x9908b0dfU);
    for (k = 0; k < MT_N; k++) {
        y = mt[k];
        y ^= (y >> 11);
        y ^= (y << 7) & 0x9d2c5680U;
        y ^= (y << 15) & 0xefc60000U;
        y ^= (y >> 18);
        g->block[k] = y;
    }
    g->index = 0;
}

INLINE uint32_t genrand_uint32(mt_stream *g)
{
    if (__builtin_expect(g->index >= MT_N, 0))
        mt_refill(g);
    return g->block[g->index++];
}

/* init_genrand(19650218): the state init_by_array starts from, the same
   624 words for every seed */
static void init_genrand(uint32_t *mt)
{
    int k;

    mt[0] = 19650218U;
    for (k = 1; k < MT_N; k++)
        mt[k] = 1812433253U * (mt[k - 1] ^ (mt[k - 1] >> 30)) + (uint32_t)k;
}

/* init_by_array over key from base, the words init_genrand left, as
   random.Random(seed) seeds its generator; the next draw regenerates the
   state */
static void seed_mt(mt_stream *g, const uint32_t *base, const uint32_t *key,
                    int64_t key_len)
{
    uint32_t *mt = g->state;
    int64_t i = 1, j = 0, k;

    memcpy(mt, base, sizeof g->state);
    for (k = MT_N > key_len ? MT_N : key_len; k; k--) {
        mt[i] = (mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30)) * 1664525U))
                + key[j] + (uint32_t)j;
        i++;
        j++;
        if (i >= MT_N) {
            mt[0] = mt[MT_N - 1];
            i = 1;
        }
        if (j >= key_len)
            j = 0;
    }
    for (k = MT_N - 1; k; k--) {
        mt[i] = (mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30)) * 1566083941U))
                - (uint32_t)i;
        i++;
        if (i >= MT_N) {
            mt[0] = mt[MT_N - 1];
            i = 1;
        }
    }
    mt[0] = 0x80000000U;
    g->index = MT_N;
}

INLINE double random53(mt_stream *g)
{
    uint32_t a = genrand_uint32(g) >> 5;
    uint32_t b = genrand_uint32(g) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

static int bit_length(int64_t n)
{
    return n ? 64 - __builtin_clzll((uint64_t)n) : 0;
}

/* getrandbits(bits), 1 <= bits <= 64 */
INLINE uint64_t getrandbits(mt_stream *g, int bits)
{
    uint64_t low;

    if (bits <= 32)
        return genrand_uint32(g) >> (32 - bits);
    low = genrand_uint32(g);
    return low | (uint64_t)(genrand_uint32(g) >> (64 - bits)) << 32;
}

/* randrange(n) for n >= 1 */
INLINE int64_t randbelow(mt_stream *g, int64_t n)
{
    const int bits = bit_length(n);
    uint64_t r = getrandbits(g, bits);

    while (r >= (uint64_t)n)
        r = getrandbits(g, bits);
    return (int64_t)r;
}

/* bisect_right(a, x) over the n >= 1 sorted doubles of a, without a
   branch on the data: each step keeps the half the answer lies in, so it
   returns the number of entries <= x, ties included */
INLINE int64_t bisect_right(const double *a, int64_t n, double x)
{
    const double *base = a;
    int64_t half;

    while (n > 1) {
        half = n / 2;
        base += (base[half] <= x) * half;
        n -= half;
    }
    return base - a + (*base <= x);
}

/* Add x to the np partials of ps, as CPython's math.fsum adds each term:
   Shewchuk's nonoverlapping partials (Discrete Comput. Geom. 18, 1997),
   kept in increasing magnitude. Returns the new count, at most np + 1.
   Terms must be finite and their sums far from overflow, as service
   rates and sojourn times are: CPython's branches for infinities, NaN
   and overflow are left out. */
static int64_t fsum_add(double *ps, int64_t np, double x)
{
    int64_t i, j;
    double y, t, hi, yr, lo;

    for (i = j = 0; j < np; j++) {
        y = ps[j];
        if (fabs(x) < fabs(y)) {
            t = x;
            x = y;
            y = t;
        }
        hi = x + y;
        yr = hi - x;
        lo = y - yr;
        if (lo != 0.0)
            ps[i++] = lo;
        x = hi;
    }
    if (x != 0.0)
        ps[i++] = x;
    return i;
}

/* The sum of the np partials of ps, correctly rounded as math.fsum rounds
   it: the top partials summed down, then the half-way correction. */
static double fsum_round(const double *ps, int64_t np)
{
    double x, y, yr, hi = 0.0, lo = 0.0;

    if (np > 0) {
        hi = ps[--np];
        while (np > 0) {
            x = hi;
            y = ps[--np];
            hi = x + y;
            yr = hi - x;
            lo = y - yr;
            if (lo != 0.0)
                break;
        }
        if (np > 0 && ((lo < 0.0 && ps[np - 1] < 0.0) ||
                       (lo > 0.0 && ps[np - 1] > 0.0))) {
            y = lo * 2.0;
            x = hi + y;
            yr = x - hi;
            if (y == yr)
                hi = x;
        }
    }
    return hi;
}

/* math.fsum of svc[busy[k]], k < n. ps holds n doubles. */
static double fsum_busy(const double *svc, const int64_t *busy, int64_t n,
                        double *ps)
{
    int64_t k, np = 0;

    for (k = 0; k < n; k++)
        np = fsum_add(ps, np, svc[busy[k]]);
    return fsum_round(ps, np);
}

/* make room for need items in array a of capacity cap, doubling it;
   out of memory, the calling function returns NO_MEMORY */
#define RESERVE(a, cap, need)                                   \
    do {                                                        \
        if ((need) > (cap)) {                                   \
            int64_t c_ = (cap) ? 2 * (cap) : 16;                \
            void *q_;                                           \
            while (c_ < (need))                                 \
                c_ *= 2;                                        \
            q_ = realloc((a), (size_t)c_ * sizeof *(a));        \
            if (!q_)                                            \
                return NO_MEMORY;                               \
            (a) = q_;                                           \
            (cap) = c_;                                         \
        }                                                       \
    } while (0)

typedef struct {
    int64_t server, bagpos, id;  /* id: its sojourn row, -1 if seeded */
} slot;

typedef struct {
    int64_t *slot;  /* the slots of one server's residents */
    int64_t len, cap;
} bag;

typedef struct {
    int64_t *busy, *busy_pos;   /* occupied servers, and where each sits */
    slot *slots;                /* one per client present */
    bag *bags;
    double *partials;
    int64_t slots_cap, times_cap, snaps_cap, sojourns_cap;
} workspace;

static void workspace_free(workspace *st, int64_t m)
{
    int64_t i;

    if (st->bags)
        for (i = 0; i < m; i++)
            free(st->bags[i].slot);
    free(st->bags);
    free(st->busy);
    free(st->busy_pos);
    free(st->slots);
    free(st->partials);
}

static int push_row(open_run *r, workspace *st, double t)
{
    int64_t k = r->n_rows, i;

    RESERVE(r->times, st->times_cap, k + 1);
    RESERVE(r->snaps, st->snaps_cap, (k + 1) * r->m);
    r->times[k] = t;
    for (i = 0; i < r->m; i++)
        r->snaps[k * r->m + i] = r->counts[i];
    r->n_rows = k + 1;
    return OK;
}

static int push_to_bag(bag *b, int64_t s)
{
    RESERVE(b->slot, b->cap, b->len + 1);
    b->slot[b->len++] = s;
    return OK;
}

/* slot s, the last, for a client on server i */
static int push_slot(workspace *st, int64_t s, int64_t i, int64_t id)
{
    RESERVE(st->slots, st->slots_cap, s + 1);
    st->slots[s].server = i;
    st->slots[s].bagpos = st->bags[i].len;
    st->slots[s].id = id;
    return push_to_bag(&st->bags[i], s);
}

static void drop_busy(workspace *st, int64_t i, int64_t *n_busy)
{
    int64_t p = st->busy_pos[i], mv = st->busy[--*n_busy];

    st->busy[p] = mv;
    st->busy_pos[mv] = p;
}

static void add_busy(workspace *st, int64_t j, int64_t *n_busy)
{
    st->busy_pos[j] = *n_busy;
    st->busy[(*n_busy)++] = j;
}

static int run(open_run *r, workspace *st)
{
    const int64_t m = r->m, cap = r->cap, dests = r->dests;
    const double *svc = r->svc, *cum_arr = r->cum_arr;
    const double total_arr = cum_arr[m - 1], beta = r->beta;
    const double horizon = r->horizon, sample_dt = r->sample_dt;
    /* locals, since a store through counts could change r->track */
    const int track = r->track != 0, rls = r->rls != 0;
    int64_t *counts = r->counts, *busy;
    mt_stream g;
    uint32_t base[MT_N];
    int64_t n_busy = 0, n_live = 0, sample_idx = 1, refresh = 0;
    int64_t n_arrival = 0, n_departure = 0, n_migration = 0, n_rejected = 0;
    int64_t n_self = 0, n_dropped = 0, n_blocked = 0;
    int64_t i, j, k, s, p, ci, cj, mv;
    int homogeneous = 1;
    double busy_svc, next_sample, total, t_next, w, t = 0.0;
    bag *b;

    st->busy = busy = malloc((size_t)m * sizeof(int64_t));
    st->busy_pos = malloc((size_t)m * sizeof(int64_t));
    st->partials = malloc((size_t)m * sizeof(double));
    st->bags = calloc((size_t)m, sizeof(bag));
    if (!busy || !st->busy_pos || !st->partials || !st->bags)
        return NO_MEMORY;
    init_genrand(base);
    seed_mt(&g, base, r->key, r->key_len);
    for (i = 0; i < m; i++) {
        homogeneous &= svc[i] == svc[0];
        if (counts[i] > 0)
            add_busy(st, i, &n_busy);
        for (k = 0; k < counts[i]; k++)  /* seeded clients carry no row */
            if (push_slot(st, n_live++, i, -1))
                return NO_MEMORY;
    }
    busy_svc = fsum_busy(svc, busy, n_busy, st->partials);
    if (push_row(r, st, 0.0))
        return NO_MEMORY;
    next_sample = sample_dt != 0.0 ? sample_dt : INFINITY;

    for (;;) {
        total = total_arr + busy_svc + beta * (double)n_live;
        t_next = INFINITY;
        if (total > 0.0) {
            w = random53(&g);
            t_next = t - log(1.0 - w) / total;
        }
        while (next_sample <= t_next && next_sample <= horizon) {
            if (push_row(r, st, next_sample))
                return NO_MEMORY;
            sample_idx += 1;
            next_sample = (double)sample_idx * sample_dt;
        }
        if (t_next > horizon) {
            t = horizon;
            break;
        }
        t = t_next;
        w = random53(&g) * total;

        if (w < total_arr) {
            i = bisect_right(cum_arr, m, w);
            ci = counts[i];
            if (cap >= 0 && ci >= cap) {
                n_dropped++;
                continue;
            }
            counts[i] = ci + 1;
            if (ci == 0) {
                add_busy(st, i, &n_busy);
                busy_svc += svc[i];
            }
            if (push_slot(st, n_live, i, n_arrival))
                return NO_MEMORY;
            if (track) {  /* its row */
                RESERVE(r->sojourns, st->sojourns_cap, 2 * (n_arrival + 1));
                r->sojourns[2 * n_arrival] = t;
                r->sojourns[2 * n_arrival + 1] = NAN;
                r->n_sojourns = n_arrival + 1;
            }
            n_live++;
            n_arrival++;
            continue;
        }

        w -= total_arr;
        if (w < busy_svc) {
            if (n_busy == 0)  /* float drift left busy_svc above 0 */
                return EMPTY_PICK;
            if (homogeneous) {
                double q = w / svc[0];
                i = q < (double)n_busy ? busy[(int64_t)q] : busy[n_busy - 1];
            } else {
                double acc = 0.0;
                i = busy[n_busy - 1];
                for (k = 0; k < n_busy; k++) {
                    acc += svc[busy[k]];
                    if (w < acc) {
                        i = busy[k];
                        break;
                    }
                }
            }
            ci = counts[i];
            b = &st->bags[i];
            if (track) {
                /* the departing client is uniform among the residents, at
                   bag position k = randrange(ci); the bag's last entry
                   moves in */
                k = randbelow(&g, ci);
                s = b->slot[k];
                if (st->slots[s].id >= 0)
                    r->sojourns[2 * st->slots[s].id + 1] = t;
                mv = b->slot[--b->len];
                if (k < ci - 1) {
                    b->slot[k] = mv;
                    st->slots[mv].bagpos = k;
                }
            } else {
                s = b->slot[--b->len];  /* counts do not depend on who leaves */
            }
            counts[i] = ci - 1;
            if (ci == 1) {
                drop_busy(st, i, &n_busy);
                busy_svc -= svc[i];
            }
            /* the last slot takes the departed slot's index */
            n_live--;
            if (s != n_live) {
                st->slots[s] = st->slots[n_live];
                st->bags[st->slots[s].server].slot[st->slots[s].bagpos] = s;
            }
            n_departure++;
            refresh++;
            if (refresh >= 65536 && !homogeneous) {  /* stop float drift */
                busy_svc = fsum_busy(svc, busy, n_busy, st->partials);
                refresh = 0;
            }
            continue;
        }

        w -= busy_svc;
        if (n_live == 0 || beta == 0.0)  /* float drift at the top of total */
            return EMPTY_PICK;
        {
            double q = w / beta;  /* rounding can reach n_live: clamp it */
            s = q < (double)n_live ? (int64_t)q : n_live - 1;
        }
        i = st->slots[s].server;
        ci = counts[i];
        j = randbelow(&g, dests);
        if (rls) {
            cj = counts[j];
            if (!(svc[j] * (double)ci > svc[i] * (double)(cj + 1))) {
                n_rejected++;  /* model.rls_accepts, inlined */
                continue;
            }
        } else {
            if (j >= i && dests < m)
                j++;  /* skip the origin */
            if (j == i) {
                n_self++;
                continue;
            }
            cj = counts[j];
        }
        if (cap >= 0 && cj >= cap) {
            n_blocked++;
            continue;
        }
        counts[i] = ci - 1;
        counts[j] = cj + 1;
        if (ci == 1) {
            drop_busy(st, i, &n_busy);
            busy_svc -= svc[i];
        }
        if (cj == 0) {
            add_busy(st, j, &n_busy);
            busy_svc += svc[j];
        }
        st->slots[s].server = j;
        b = &st->bags[i];
        p = st->slots[s].bagpos;
        mv = b->slot[--b->len];
        if (mv != s) {
            b->slot[p] = mv;
            st->slots[mv].bagpos = p;
        }
        st->slots[s].bagpos = st->bags[j].len;
        if (push_to_bag(&st->bags[j], s))
            return NO_MEMORY;
        n_migration++;
    }

    /* the horizon may already sit on the sample grid */
    if (r->times[r->n_rows - 1] < t && push_row(r, st, t))
        return NO_MEMORY;
    r->tallies[0] = n_arrival;
    r->tallies[1] = n_departure;
    r->tallies[2] = n_migration;
    r->tallies[3] = n_rejected;
    r->tallies[4] = n_self;
    r->tallies[5] = n_dropped;
    r->tallies[6] = n_blocked;
    return OK;
}

/* Run the open system to the horizon: 0, or one of the error codes above.
   The outputs stay allocated either way until open_free. */
int open_loop(open_run *r)
{
    workspace st = {0};
    int status = run(r, &st);

    workspace_free(&st, r->m);
    return status;
}

void open_free(open_run *r)
{
    free(r->times);
    free(r->snaps);
    free(r->sojourns);
}

/* A list of closed runs of one cell, one per seed: run k seeds from the
   key_lens[k] words that follow the runs before it in keys. */
typedef struct {
    /* inputs, shared by the runs */
    int64_t m;
    double horizon;
    int64_t band_lo;        /* stop once every occupancy lies in */
    int64_t band_hi;        /* [band_lo, band_hi] */
    const int64_t *start;   /* m occupancies */
    int64_t runs;
    const uint32_t *keys;   /* each run's words of abs(seed), as in open_run */
    const int64_t *key_lens;
    /* outputs, runs entries each */
    double *t;              /* the stop time, or the horizon if censored */
    int64_t *stopped;
    int64_t *moves;         /* accepted moves */
    int64_t *counts;        /* runs x m occupancies at the end */
    int64_t failed;         /* the run that returned an error, if one did */
    int64_t prev_max;       /* the maximum occupancy before and after the */
    int64_t cur_max;        /* move that failed the MAX_ROSE audit */
} closed_run;

/* The change in the accepted pairs when a client moves from a server at
   level k to one at level low <= k - 2, from the counts below[] of before
   the move. The pairs are the sum of c_a over the ordered server pairs
   with c_a >= c_b + 2, and only the pairs with the source or the
   destination change, so the move is two steps, each of one server:

   - k to k - 1: as a source the server loses its k * below[k - 1] pairs
     and gains (k - 1) * below[k - 2], which is -(k - 1) * h_{k-2} -
     below[k - 1] in all, with h_v = below[v + 1] - below[v] the servers at
     level v; as a destination it gains the (k + 1) * h_{k+1} pairs of
     the level that now sits two above it;
   - low to low + 1, on the levels after the first step: as a source the
     server gains low * h_{low-1} + below[low]; as a destination it loses
     the (low + 2) * h'_{low+2} pairs of the level no longer two above it,
     where the first step took one server from level k to level k - 1.

   Each term is at most n + m in size, so nothing overflows while the
   pairs stay below 2**63. below[k + 2] is read, so below must reach
   level top + 2. */
static int64_t pairs_delta(const int64_t *below, int64_t k, int64_t low)
{
    int64_t h = below[low + 3] - below[low + 2];

    h += (low == k - 3) - (low == k - 2);
    return (k + 1) * (below[k + 2] - below[k + 1])
           - (k - 1) * (below[k - 1] - below[k - 2]) - below[k - 1]
           + low * (below[low] - below[low - 1]) + below[low]
           - (low + 2) * h;
}

/* Closed run k of r, from base, the words of init_genrand, with its
   seed's words at key: on servers with unit service rates and on the unit
   resample clock, so each accepted pair moves at rate 1 / m. order holds
   the servers sorted by occupancy, stably as Python's sorted, and where[s]
   is server s's position in it; below[v] counts the servers holding fewer
   than v clients, for -1 <= v <= top + 2, where top is the starting
   maximum. So level v fills order[below[v]:below[v + 1]] and the servers at
   level v - 2 or lower are order[:below[v - 1]]; below[-1] is 0, and the
   rest of below[] is 0 on entry. The caller has checked that the start is
   not in the band. */
static int balance(closed_run *r, int64_t run, const uint32_t *base,
                   const uint32_t *key, int64_t top, int64_t *order,
                   int64_t *where, int64_t *below)
{
    const int64_t m = r->m, band_lo = r->band_lo, band_hi = r->band_hi;
    const double rate = 1.0 / (double)m, horizon = r->horizon;
    int64_t *counts = r->counts + run * m;
    mt_stream g;
    int64_t pairs, v, s, p, lo, hk, w, k, q, i, j, low, e, rem;
    int64_t moves = 0, stopped = 0, cur_max = top, max_count, prev_max;
    int64_t prev_count;
    double t = 0.0, t_next;
    int status = OK;

    memcpy(counts, r->start, (size_t)m * sizeof *counts);
    for (s = 0; s < m; s++)  /* below[v + 1] counts the servers at level v */
        below[counts[s] + 1]++;
    for (v = 1; v <= top + 2; v++)
        below[v] += below[v - 1];
    for (s = 0; s < m; s++) {  /* below[v] steps through level v's slots */
        p = below[counts[s]]++;
        order[p] = s;
        where[s] = p;
    }
    for (v = top + 1; v > 0; v--)  /* each below[v] stepped to below[v + 1] */
        below[v] = below[v - 1];
    below[0] = 0;
    seed_mt(&g, base, key, r->key_lens[run]);

    /* A client at level v moves to a server at level v - 2 or lower, at
       rate 1 / m per (client, destination) pair, so level v sends
       v * h_v * below[v - 1] pairs. One scan down the occupied levels,
       while some server sits two below, counts them at the start; each
       move then adds its pairs_delta. pairs > 0 until the stop: every band
       holds [n / m rounded down, rounded up], which holds every state with
       max - min <= 1. */
    pairs = 0;
    v = cur_max;
    while (below[v - 1]) {
        lo = below[v];
        pairs += v * (below[v + 1] - lo) * below[v - 1];
        v = counts[order[lo - 1]];
    }
    max_count = m - below[cur_max];
    for (;;) {
        if (pairs <= 0) {  /* the audit: randbelow needs a positive bound */
            status = PAIRS_WRONG;
            break;
        }
        t_next = t - log(1.0 - random53(&g)) / (rate * (double)pairs);
        if (t_next > horizon) {
            t = horizon;
            break;
        }
        t = t_next;

        /* one uniform accepted pair: its source level k, then within the
           level's pairs a (destination, source server, client) index;
           which client moves does not matter */
        rem = randbelow(&g, pairs);
        k = cur_max;
        for (;;) {
            lo = below[k];
            hk = below[k + 1] - lo;
            w = k * hk * below[k - 1];
            if (rem < w || lo == 0)
                break;
            rem -= w;
            k = counts[order[lo - 1]];
        }
        if (rem >= w) {  /* the audit: the walk ran past the lowest level */
            status = PAIRS_WRONG;
            break;
        }
        q = rem / k;
        i = order[lo + q % hk];
        j = order[q / hk];
        low = counts[j];
        if (low > k - 2) {  /* the audit: the destination is not two below */
            status = PAIRS_WRONG;
            break;
        }
        pairs += pairs_delta(below, k, low);

        /* i drops to level k - 1: swap it to the front of level k, then
           start level k after it */
        p = where[i];
        s = order[lo];
        order[p] = s;
        where[s] = p;
        order[lo] = i;
        where[i] = lo;
        below[k] = lo + 1;
        /* j rises to level low + 1: swap it to the back of level low, then
           start level low + 1 at it */
        e = below[low + 1] - 1;
        p = where[j];
        s = order[e];
        order[p] = s;
        where[s] = p;
        order[e] = j;
        where[j] = e;
        below[low + 1] = e;
        counts[i] = k - 1;
        counts[j] = low + 1;
        moves++;

        prev_max = cur_max;
        cur_max = counts[order[m - 1]];
        if (cur_max > prev_max) {  /* before below[cur_max] is read */
            r->prev_max = prev_max;
            r->cur_max = cur_max;
            status = MAX_ROSE;
            break;
        }
        prev_count = max_count;
        max_count = m - below[cur_max];
        if (cur_max == prev_max && max_count > prev_count) {
            status = MAX_COUNT_ROSE;
            break;
        }
        if (counts[order[0]] >= band_lo && cur_max <= band_hi) {
            stopped = 1;
            break;
        }
    }
    r->t[run] = t;
    r->stopped[run] = stopped;
    r->moves[run] = moves;
    return status;
}

/* Run each closed rls run of r to balance or to the horizon, in order: 0,
   or the error code above of the first run that fails, whose index goes
   to r->failed. The runs before it are complete. */
int closed_loop(closed_run *r)
{
    const int64_t m = r->m;
    const uint32_t *key = r->keys;
    uint32_t base[MT_N];
    int64_t top = 0, bottom = r->start[0], k, s, *order, *where;
    int64_t *levels = NULL;
    int status = NO_MEMORY;

    for (s = 0; s < m; s++) {
        top = r->start[s] > top ? r->start[s] : top;
        bottom = r->start[s] < bottom ? r->start[s] : bottom;
    }
    if (bottom >= r->band_lo && top <= r->band_hi) {
        for (k = 0; k < r->runs; k++) {  /* balanced from the start */
            memcpy(r->counts + k * m, r->start, (size_t)m * sizeof(int64_t));
            r->t[k] = 0.0;
            r->stopped[k] = 1;
            r->moves[k] = 0;
        }
        return OK;
    }
    order = malloc((size_t)m * sizeof(int64_t));
    where = malloc((size_t)m * sizeof(int64_t));
    if (top < (int64_t)(SIZE_MAX / sizeof(int64_t)) - 4)
        levels = malloc(((size_t)top + 4) * sizeof(int64_t));
    r->failed = 0;
    if (order && where && levels) {  /* levels[0] is below[-1] */
        init_genrand(base);
        status = OK;
        for (k = 0; k < r->runs; key += r->key_lens[k++]) {
            memset(levels, 0, ((size_t)top + 4) * sizeof(int64_t));
            status = balance(r, k, base, key, top, order, where, levels + 1);
            if (status) {
                r->failed = k;
                break;
            }
        }
    }
    free(order);
    free(where);
    free(levels);
    return status;
}

/* The sojourn window of experiments.measure_sojourns over the n rows of
   (arrival, departure or NaN) in rows: counts[1] rows arrive in [warmup,
   cutoff], counts[0] of them with a departure, and *total is math.fsum of
   those d - a. 0, or NO_MEMORY. */
int sojourn_window(int64_t n, const double *rows, double warmup,
                   double cutoff, double *total, int64_t *counts)
{
    int64_t k, np = 0, completed = 0, in_window = 0;
    double a, d, *ps = malloc((size_t)(n + 1) * sizeof(double));

    if (!ps)
        return NO_MEMORY;
    for (k = 0; k < n; k++) {
        a = rows[2 * k];
        d = rows[2 * k + 1];
        if (a >= warmup && a <= cutoff) {
            in_window++;
            if (!isnan(d)) {
                completed++;
                np = fsum_add(ps, np, d - a);
            }
        }
    }
    *total = fsum_round(ps, np);
    counts[0] = completed;
    counts[1] = in_window;
    free(ps);
    return OK;
}

/* The forward elimination of meanfield._gauss_solve, in place on the
   row-major n x n a and on b, with numpy's operations in numpy's order:
   the pivot is the first entry of largest fabs in column j at or below
   the diagonal, a NaN counting as largest as np.argmax counts it; its row
   swaps whole with row j; then each row i below takes m = a[i][j] /
   a[j][j], a[i][k] -= m * a[j][k] for k > j, and b[i] -= m * b[j]. The
   entries below the diagonal are left as they are. Returns the column of
   a zero pivot, or -1. */
int64_t gauss_eliminate(int64_t n, double *a, double *b)
{
    int64_t i, j, k, p;
    double best, v, m, t, *ri, *rj;

    for (j = 0; j < n; j++) {
        rj = a + j * n;
        p = j;
        best = fabs(rj[j]);
        for (i = j + 1; i < n && !isnan(best); i++) {
            v = fabs(a[i * n + j]);
            if (v > best || isnan(v)) {
                best = v;
                p = i;
            }
        }
        if (a[p * n + j] == 0.0)
            return j;
        if (p != j) {
            ri = a + p * n;
            for (k = 0; k < n; k++) {
                t = rj[k];
                rj[k] = ri[k];
                ri[k] = t;
            }
            t = b[j];
            b[j] = b[p];
            b[p] = t;
        }
        for (i = j + 1; i < n; i++) {
            ri = a + i * n;
            m = ri[j] / rj[j];
            for (k = j + 1; k < n; k++)
                ri[k] -= m * rj[k];
            b[i] -= m * b[j];
        }
    }
    return -1;
}
