/* Descent kernel of streammap.partitioner.partition_oms, and the quality
 * charge of streammap.metrics.
 *
 * place_chunk places a run of consecutive nodes, given in CSR form, by
 * descending the multi-section tree from the root to a leaf. It makes the
 * same decisions, in the same floating-point operations, as the selection
 * rule of streammap.scoring.select_block, so its output equals
 * multipass_reference node for node. Build without -ffast-math and with
 * -ffp-contract=off: a fused multiply-add or a reassociated sum would round
 * differently from Python's doubles.
 *
 * A chunk's adjacency entries are two arrays: adj holds each entry's 0-based
 * neighbour id, adj_w its weight.
 *
 * The tree is a block arena: block b has kids[b] children at ids
 * first_kid[b] .. first_kid[b] + kids[b] - 1 and covers PEs lo[b] .. hi[b].
 * Siblings split their parent's range by near-equal sizes, larger first, so
 * the child holding a PE is found by arithmetic.
 *
 * charge_chunk adds a chunk's node and edge weights to the quality sums of a
 * placement, in stream order: a placement is charged as its pass places it.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* counters[], in the field order of streammap.partitioner.RunCounters */
enum { NODES, EDGES, SCORED, HASHED, OVERFLOWS };

/* A block's penalty term at weight w: fennel subtracts it from the neighbour
 * count, ldg multiplies the count by it. It is recomputed only when the
 * block's weight changes. */
static double penalty_term(int fennel, double alpha, double capacity, double w)
{
    return fennel ? (alpha * 1.5) * sqrt(w) : 1.0 - w / capacity;
}

/* scoring._mix64, the murmur3 finalizer */
static uint64_t mix64(uint64_t x)
{
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDULL;
    x ^= x >> 33;
    x *= 0xC4CEB9FE1A85EC53ULL;
    x ^= x >> 33;
    return x;
}

/* Lightest of s siblings; ids rise with the index, so the first one found
 * is also the one with the lower id. */
static int64_t lightest(int64_t first, int64_t s, const double *weight)
{
    int64_t best = 0;
    for (int64_t j = 1; j < s; j++)
        if (weight[first + j] < weight[first + best])
            best = j;
    return best;
}

/* Hashed pick: the hashed sibling when it takes the node, else the next one
 * that does, cyclically; -1 when none does. */
static int64_t hash_probe(uint64_t seed, int64_t nid, int64_t parent, int64_t first,
                          int64_t s, double cw, const double *weight, const double *capacity)
{
    const uint64_t h = mix64((uint64_t)nid ^ mix64(seed ^ mix64((uint64_t)parent)));
    const int64_t start = (int64_t)(h % (uint64_t)s);
    for (int64_t step = 0; step < s; step++) {
        const int64_t c = (start + step) % s;
        if (weight[first + c] + cw <= capacity[first + c])
            return c;
    }
    return -1;
}

/* Scored pick: the best score among the siblings that take the node, ties
 * to the lighter one; -1 when none takes it. */
static int64_t best_scored(int fennel, const double *counts, int64_t first, int64_t s,
                           double cw, const double *weight, const double *capacity,
                           const double *term)
{
    int64_t best = -1;
    double best_score = -INFINITY, best_w = 0.0;
    for (int64_t c = 0; c < s; c++) {
        const double w = weight[first + c];
        if (w + cw > capacity[first + c])
            continue;
        const double score = fennel ? counts[c] - term[first + c] : counts[c] * term[first + c];
        /* a later sibling has a higher id, so it wins a tie only by being lighter */
        if (best < 0 || score > best_score || (score == best_score && w < best_w)) {
            best = c;
            best_score = score;
            best_w = w;
        }
    }
    return best;
}

/* Places nodes first_id .. first_id + count - 1. Node i's adjacency is
 * entries indptr[i] .. indptr[i + 1] - 1 of adj and adj_w; assignment holds
 * 0 for a node not yet placed. The top scored_levels levels are scored, the
 * rest hashed. Returns 0, or -1 when scratch memory cannot be allocated. */
int place_chunk(
    const int64_t *first_kid, const int64_t *kids, const int64_t *lo,
    const int64_t *hi, const double *capacity, const double *alpha,
    double *weight, double *term, int64_t max_kids, int64_t scored_levels,
    int fennel, uint64_t seed, int64_t first_id, int64_t count,
    const int64_t *indptr, const int64_t *adj, const double *adj_w,
    const double *node_w, int32_t *assignment, int64_t *counters)
{
    int64_t max_deg = 0;
    for (int64_t i = 0; i < count; i++)
        if (indptr[i + 1] - indptr[i] > max_deg)
            max_deg = indptr[i + 1] - indptr[i];
    /* placed neighbours: PE, edge weight, child index at the current level */
    int64_t *pes = malloc((size_t)(max_deg + 1) * sizeof *pes);
    int64_t *idx = malloc((size_t)(max_deg + 1) * sizeof *idx);
    double *ws = malloc((size_t)(max_deg + 1) * sizeof *ws);
    double *counts = calloc((size_t)(max_kids + 1), sizeof *counts);
    if (!pes || !idx || !ws || !counts) {
        free(pes), free(idx), free(ws), free(counts);
        return -1;
    }

    for (int64_t i = 0; i < count; i++) {
        const int64_t nid = first_id + i;
        const double cw = node_w[i];
        counters[NODES] += 1;
        counters[EDGES] += indptr[i + 1] - indptr[i];
        int64_t m = 0;
        if (scored_levels > 0) {
            for (int64_t e = indptr[i]; e < indptr[i + 1]; e++) {
                const int32_t pe = assignment[adj[e]];
                if (pe != 0) {
                    pes[m] = pe;
                    ws[m] = adj_w[e];
                    m++;
                }
            }
        }
        int64_t b = 0;
        for (int64_t depth = 0; kids[b] > 0; depth++) {
            const int64_t s = kids[b], first = first_kid[b];
            const int scored = depth < scored_levels;
            int64_t j;
            if (scored) {
                /* r children of q+1 PEs, then children of q PEs */
                const int64_t t = hi[b] - lo[b] + 1, q = t / s, r = t % s;
                const int64_t mid = lo[b] + r * (q + 1);
                for (int64_t x = 0; x < m; x++) {
                    idx[x] = pes[x] < mid ? (pes[x] - lo[b]) / (q + 1) : r + (pes[x] - mid) / q;
                    counts[idx[x]] += ws[x];
                }
                j = best_scored(fennel, counts, first, s, cw, weight, capacity, term);
                for (int64_t x = 0; x < m; x++)
                    counts[idx[x]] = 0.0;
                counters[SCORED] += s;
            } else {
                /* levels below a hashed one hash too, so counts are never read */
                j = hash_probe(seed, nid, b, first, s, cw, weight, capacity);
                counters[HASHED] += 1;
            }
            if (j < 0) {
                j = lightest(first, s, weight);
                counters[OVERFLOWS] += 1;
            }
            b = first + j;
            weight[b] += cw;
            term[b] = penalty_term(fennel, alpha[b], capacity[b], weight[b]);
            if (scored && m > 0 && kids[b] > 0) {
                int64_t kept = 0;
                for (int64_t x = 0; x < m; x++) {
                    if (lo[b] <= pes[x] && pes[x] <= hi[b]) {
                        pes[kept] = pes[x];
                        ws[kept] = ws[x];
                        kept++;
                    }
                }
                m = kept;
            }
        }
        assignment[nid] = (int32_t)lo[b];
    }
    free(pes), free(idx), free(ws), free(counts);
    return 0;
}

/* sums[] and floats[] of charge_chunk: four totals, the cut of each of ell
 * levels, then the weight of each of k PEs */
enum { NODE_TOTAL, EDGE_TOTAL, CUT, COST, LEVEL_CUT };

/* Charges nodes first_id .. first_id + count - 1, placed on the 1-based PEs
 * in assignment, to sums[]. Each undirected edge {u, v}, u < v, is charged
 * once, at v's row and with the weight that row gives it: the only endpoint
 * at which a one-pass stream knows both PEs. Sums add in node order, then
 * adjacency order. floats[] gains a 1 for each sum with a float-token
 * summand; node_float and edge_float hold one such bit per weight, or are
 * NULL when every weight of their kind has the bit all_node_float or
 * all_edge_float. With ell > 0 a cut edge is also charged to the lowest
 * level whose module holds both PEs, where level l + 1 groups modules[l]
 * PEs, and level ell takes every pair no lower level holds; with dist (NULL
 * when not given) its cost is weight * dist[level - 1]. */
void charge_chunk(
    int64_t first_id, int64_t count, const int64_t *indptr, const int64_t *adj,
    const double *adj_w, const double *node_w, const uint8_t *node_float,
    int all_node_float, const uint8_t *edge_float, int all_edge_float,
    const int32_t *assignment, int64_t ell, const int64_t *modules, const double *dist,
    double *sums, uint8_t *floats)
{
    double *block = sums + LEVEL_CUT + ell;
    uint8_t *block_float = floats + LEVEL_CUT + ell;
    for (int64_t i = 0; i < count; i++) {
        const int64_t v = first_id + i;
        const int32_t pv = assignment[v];
        const uint8_t nf = node_float ? node_float[i] : (uint8_t)all_node_float;
        sums[NODE_TOTAL] += node_w[i];
        floats[NODE_TOTAL] |= nf;
        block[pv - 1] += node_w[i];
        block_float[pv - 1] |= nf;
        for (int64_t e = indptr[i]; e < indptr[i + 1]; e++) {
            const int64_t u = adj[e];
            if (u >= v)
                continue;
            const double w = adj_w[e];
            const uint8_t ef = edge_float ? edge_float[e] : (uint8_t)all_edge_float;
            sums[EDGE_TOTAL] += w;
            floats[EDGE_TOTAL] |= ef;
            const int32_t pu = assignment[u];
            if (pu == pv)
                continue;
            sums[CUT] += w;
            floats[CUT] |= ef;
            if (ell == 0)
                continue;
            int64_t level = 0;
            while (level < ell - 1 && (pu - 1) / modules[level] != (pv - 1) / modules[level])
                level++;
            sums[LEVEL_CUT + level] += w;
            floats[LEVEL_CUT + level] |= ef;
            if (dist)
                sums[COST] += w * dist[level];
        }
    }
}
