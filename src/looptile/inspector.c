/* The per-element passes of looptile.inspector: projection through a map,
 * tiling and first-fit coloring; the counting sort behind every CSR the
 * program builds: a map's inverse (chain.invert_map), the edge graph that
 * looptile.mesh renumbers vertices over, with its Cuthill-McKee walk, and
 * the cells around each vertex; the counting passes that reorder a
 * renumbered mesh's cells and edges, in place of a sort; and
 * looptile.partition's passes, one over the whole mesh and two per rank
 * that touch only the rank's local elements.  One fixed source, compiled
 * once per compiler through looptile.codegen.load.  A direct access needs
 * no pass: its loop's tiling met, at each element, the held projection it
 * replaces.
 *
 * Every array is C-contiguous int64 unless its type says otherwise.  The
 * Python callers check each length and each tile id once, when they bind a
 * pass to its arrays; chain.MeshMap checks a map's values,
 * mesh.rcm_ordering its CSR, mesh.vertex_adjacency the edge list,
 * mesh.rcm_renumber the cell list and partition.partition_for_ranks the
 * mesh connectivity, so nothing here checks a bound.  A tile id is -1 (no
 * tile) or lies in [0, n_tiles).  A pair of tiles low < high is written as
 * the key low * n_tiles + high; each function that writes keys returns how
 * many it wrote, at most one per candidate it visits, and writes none when
 * keys is NULL.
 */

#include <stdint.h>
#include <stdlib.h>

static inline int64_t pair_key(const int64_t a, const int64_t b,
                               const int64_t n_tiles)
{
    return a < b ? a * n_tiles + b : b * n_tiles + a;
}

/* A stable counting sort.  Source i, for i in [0, n), holds the arity keys
 * keys[i * arity:(i + 1) * arity], each in [0, n_buckets).  Bucket b
 * receives, ascending, source i once per key of i equal to b:
 * sources[offsets[b]:offsets[b + 1]].  offsets has room for n_buckets + 1,
 * sources for n * arity. */
static void bucket_sources(const int64_t n, const int64_t arity,
                           const int64_t *restrict keys,
                           const int64_t n_buckets, int64_t *restrict offsets,
                           int64_t *restrict sources)
{
    for (int64_t b = 0; b <= n_buckets; b++)
        offsets[b] = 0;
    for (int64_t q = 0; q < n * arity; q++)
        offsets[keys[q]]++;
    for (int64_t b = 0; b < n_buckets; b++)
        offsets[b + 1] += offsets[b];
    /* offsets[b] is now where bucket b ends; filling backwards moves it to
     * where the bucket starts and leaves each bucket ascending */
    for (int64_t i = n - 1, q = n * arity - 1; i >= 0; i--)
        for (int64_t k = 0; k < arity; k++, q--)
            sources[--offsets[keys[q]]] = i;
}

/* Sort row[0:k] in place by insertion, which is linear on the short,
 * almost ordered rows of a mesh: by (degree in the CSR offsets, id) if
 * by_degree, else by id alone, offsets unread.  Each caller passes
 * by_degree as a constant, so the inlined loop never tests it.  Equal
 * entries are one vertex, so stability is moot. */
static inline void sort_row(int64_t *restrict row, const int64_t k,
                            const int64_t *restrict offsets,
                            const int by_degree)
{
    for (int64_t i = 1; i < k; i++) {
        const int64_t w = row[i],
                      dw = by_degree ? offsets[w + 1] - offsets[w] : 0;
        int64_t j = i;
        for (; j > 0; j--) {
            const int64_t u = row[j - 1],
                          du = by_degree ? offsets[u + 1] - offsets[u] : 0;
            if (du < dw || (du == dw && u <= w))
                break;
            row[j] = u;
        }
        row[j] = w;
    }
}

/* The inverse of a map from n sources, arity targets each in values, onto
 * n_targets: target t's sources, ascending and once per column that names
 * t, are sources[offsets[t]:offsets[t + 1]]. */
void looptile_invert(const int64_t n, const int64_t arity,
                     const int64_t *values, const int64_t n_targets,
                     int64_t *offsets, int64_t *sources)
{
    bucket_sources(n, arity, values, n_targets, offsets, sources);
}

/* The edge graph of ne edges (vertex pairs in e2v) over nv vertices as a
 * CSR: vertex v's distinct neighbours, ascending, are
 * neighbors[offsets[v]:offsets[v + 1]]; an edge (v, v) makes v its own.
 * neighbors has room for 2 ne; returns how many it holds. */
int64_t looptile_adjacency(const int64_t ne, const int64_t *e2v,
                           const int64_t nv, int64_t *offsets,
                           int64_t *neighbors)
{
    /* the edges around each vertex, in edge order, then the other end of
     * each, sorted */
    bucket_sources(ne, 2, e2v, nv, offsets, neighbors);
    int64_t count = 0;
    for (int64_t v = 0, lo = 0; v < nv; v++) {
        const int64_t k = offsets[v + 1] - lo;
        int64_t *row = neighbors + lo;
        for (int64_t q = 0; q < k; q++) {
            const int64_t *pair = e2v + 2 * row[q];
            row[q] = pair[0] == v ? pair[1] : pair[0];
        }
        sort_row(row, k, NULL, 0);
        /* rows move down over the repeats dropped before them */
        lo += k;
        offsets[v] = count;
        for (int64_t q = 0; q < k; q++)
            if (count == offsets[v] || neighbors[count - 1] != row[q])
                neighbors[count++] = row[q];
    }
    offsets[nv] = count;
    return count;
}

/* A projection through a map.  Target element e has the sources
 * sources[offsets[e]:offsets[e + 1]], on tiles sigma[source].  It keeps its
 * held tile unless a source's tile has a strictly higher color; then the
 * first source of the highest color wins; a NULL held holds no tile.  Unless
 * keys is NULL, per element and color the first tile seen (the held one,
 * then the sources in order) meets every later distinct tile of that color.
 * The held tile is always first of its color, so only sources write keys:
 * at most one each.  projected may be held itself: element e reads held[e]
 * before it writes projected[e]. */
int64_t looptile_project(const int64_t *offsets, const int64_t *sources,
                         const int64_t *sigma, const int64_t *held,
                         const int64_t n, const int64_t *colors,
                         const int64_t n_tiles, int64_t *projected,
                         int64_t *keys)
{
    int64_t count = 0;
    for (int64_t e = 0; e < n; e++) {
        const int64_t h = held != NULL ? held[e] : -1;
        const int64_t lo = offsets[e], hi = offsets[e + 1];
        int64_t best = h, best_color = h >= 0 ? colors[h] : -1;
        for (int64_t q = lo; q < hi; q++) {
            const int64_t t = sigma[sources[q]];
            if (t < 0)
                continue;
            const int64_t c = colors[t];
            if (c > best_color) {
                best = t;
                best_color = c;
            }
            if (keys == NULL)
                continue;
            int64_t first = h >= 0 && colors[h] == c ? h : -1;
            for (int64_t p = lo; first < 0 && p < q; p++) {
                const int64_t u = sigma[sources[p]];
                if (u >= 0 && colors[u] == c)
                    first = u;
            }
            if (first >= 0 && first != t)
                keys[count++] = pair_key(first, t, n_tiles);
        }
        projected[e] = best;
    }
    return count;
}

/* A loop's tiling over n elements from n_desc descriptors'
 * projections.  Element e's candidates are, per descriptor d in order, the
 * projection proj[d] at the element itself (rows[d] NULL, arity 1) or at
 * each column of row e of its map, in column order.  Element e lands on the
 * first candidate of the highest color; with no candidate on a tile it gets
 * -1.  Unless keys is NULL, each executable element (e < n_exec) on a tile
 * meets every distinct candidate of its tile's color, its held projection
 * through a direct descriptor among them.  cache has room for two entries
 * per candidate of one element: their tiles and their colors.
 * sigma aliases no projection, and n_tiles is at least 1. */
int64_t looptile_tile(const int64_t n, const int64_t n_exec,
                      const int64_t n_desc, const int64_t *const *restrict proj,
                      const int64_t *const *restrict rows,
                      const int64_t *restrict arity,
                      const int64_t *restrict colors, const int64_t n_tiles,
                      int64_t *restrict cache, int64_t *restrict sigma,
                      int64_t *restrict keys)
{
    int64_t width = 0;
    for (int64_t d = 0; d < n_desc; d++)
        width += arity[d];
    int64_t *restrict tiles = cache;
    int64_t *restrict tile_colors = cache + width;
    int64_t count = 0;
    for (int64_t e = 0; e < n; e++) {
        int64_t i = 0;
        for (int64_t d = 0; d < n_desc; d++) {
            const int64_t *restrict p = proj[d];
            if (rows[d] == NULL) {
                tiles[i++] = p[e];
                continue;
            }
            const int64_t *restrict row = rows[d] + e * arity[d];
            for (int64_t k = 0; k < arity[d]; k++)
                tiles[i++] = p[row[k]];
        }
        /* a candidate on no tile counts as color -1 and never beats the
         * start; a later candidate wins only on a strictly higher color.
         * The selects compile without branches. */
        int64_t best = -1, best_color = -1;
        for (int64_t k = 0; k < width; k++) {
            const int64_t t = tiles[k];
            const int64_t loaded = colors[t < 0 ? 0 : t];
            const int64_t c = t < 0 ? -1 : loaded;
            const int higher = c > best_color;
            tile_colors[k] = c;
            best = higher ? t : best;
            best_color = higher ? c : best_color;
        }
        sigma[e] = best;
        if (keys == NULL || e >= n_exec || best < 0)
            continue;
        for (int64_t k = 0; k < width; k++)
            if (tile_colors[k] == best_color && tiles[k] != best)
                keys[count++] = pair_key(best, tiles[k], n_tiles);
    }
    return count;
}

/* First-fit colors.  Over the tiles of region 0 in id order, then those of
 * region 1, a tile takes the lowest color at or above the region's floor
 * that no neighbour holds: 0 for region 0, one above region 0's highest
 * color for region 1.  Tiles of region 2 get one above the highest color
 * given.  Two tiles are neighbours if a key of pairs (each in [0, n * n))
 * names them.  Returns 0, or -1 if no scratch memory could be had. */
int looptile_color(const int64_t *regions, const int64_t n,
                   const int64_t *pairs, const int64_t n_pairs,
                   int64_t *colors)
{
    int64_t *offsets = calloc(n + 2, sizeof *offsets);
    int64_t *neighbours = malloc((2 * n_pairs + 1) * sizeof *neighbours);
    /* mark[c] == t + 1 while tile t is colored: a neighbour holds c */
    int64_t *mark = calloc(n + 1, sizeof *mark);
    if (offsets == NULL || neighbours == NULL || mark == NULL) {
        free(offsets);
        free(neighbours);
        free(mark);
        return -1;
    }
    for (int64_t i = 0; i < n_pairs; i++) {
        offsets[pairs[i] / n + 2]++;
        offsets[pairs[i] % n + 2]++;
    }
    for (int64_t t = 0; t < n; t++)
        offsets[t + 2] += offsets[t + 1];
    /* offsets[t + 1] is now where tile t's neighbours start; filling moves
     * it to where they end */
    for (int64_t i = 0; i < n_pairs; i++) {
        const int64_t low = pairs[i] / n, high = pairs[i] % n;
        neighbours[offsets[low + 1]++] = high;
        neighbours[offsets[high + 1]++] = low;
    }

    for (int64_t t = 0; t < n; t++)
        colors[t] = -1;
    int64_t floor = 0;
    for (int64_t region = 0; region < 2; region++) {
        int64_t top = floor - 1;
        for (int64_t t = 0; t < n; t++) {
            if (regions[t] != region)
                continue;
            /* an uncolored neighbour holds -1 and one of region 0 a color
             * below region 1's floor, so neither blocks a color */
            for (int64_t i = offsets[t]; i < offsets[t + 1]; i++) {
                const int64_t c = colors[neighbours[i]];
                if (c >= floor)
                    mark[c] = t + 1;
            }
            int64_t color = floor;
            while (mark[color] == t + 1)
                color++;
            colors[t] = color;
            if (color > top)
                top = color;
        }
        floor = top + 1;
    }
    for (int64_t t = 0; t < n; t++)
        if (regions[t] == 2)
            colors[t] = floor;

    free(offsets);
    free(neighbours);
    free(mark);
    return 0;
}

/* Cuthill-McKee over a graph's CSR: vertex v's neighbours are
 * rows[offsets[v]:offsets[v + 1]], in any order.  The walk starts at the
 * lowest-id vertex of least degree.  Each vertex it dequeues has its row
 * sorted in place by (degree, id), by insertion, since mesh rows are short;
 * its neighbours not yet seen join the queue in that order.  order (room
 * for n) receives the vertices in queue order.  Returns how many were
 * placed, fewer than n if the graph is disconnected, or -1 if no scratch
 * memory could be had. */
int64_t looptile_cuthill_mckee(const int64_t n, const int64_t *offsets,
                               int64_t *rows, int64_t *order)
{
    if (n == 0)
        return 0;
    char *seen = calloc(n, 1);
    if (seen == NULL)
        return -1;
    int64_t start = 0;
    for (int64_t v = 1; v < n; v++)
        if (offsets[v + 1] - offsets[v] < offsets[start + 1] - offsets[start])
            start = v;
    seen[start] = 1;
    order[0] = start;
    int64_t tail = 1;
    for (int64_t head = 0; head < tail; head++) {
        const int64_t v = order[head], lo = offsets[v], hi = offsets[v + 1];
        sort_row(rows + lo, hi - lo, offsets, 1);
        for (int64_t i = lo; i < hi; i++)
            if (!seen[rows[i]]) {
                seen[rows[i]] = 1;
                order[tail++] = rows[i];
            }
    }
    free(seen);
    return tail;
}

/* Stable counting passes over the vertex range, last key first, as
 * np.lexsort orders.  Row i of rows holds arity vertex ids (at most 3),
 * relabelled by perm; its keys, keys[i * arity:(i + 1) * arity], are its
 * new ids, ascending.  order (room for n) receives the ids of the n rows
 * ascending by keys, equal keys in id order.  A pass costs n + nv whatever
 * the ids, so a vertex in many rows costs nothing extra.  keys has room
 * for n * arity, scratch for n, count for nv. */
static void lexsort_rows(const int64_t n, const int64_t arity,
                         const int64_t *restrict rows,
                         const int64_t *restrict perm, const int64_t nv,
                         int64_t *restrict keys, int64_t *restrict order,
                         int64_t *restrict scratch, int64_t *restrict count)
{
    for (int64_t i = 0; i < n * arity; i += arity) {
        for (int64_t k = 0; k < arity; k++)
            keys[i + k] = perm[rows[i + k]];
        sort_row(keys + i, arity, NULL, 0);
    }
    for (int64_t c = arity - 1; c >= 0; c--) {
        /* the passes alternate between the buffers and end in order */
        const int64_t *from = c == arity - 1 ? NULL : c % 2 ? order : scratch;
        int64_t *to = c % 2 ? scratch : order;
        for (int64_t b = 0; b < nv; b++)
            count[b] = 0;
        for (int64_t i = 0; i < n; i++)
            count[keys[i * arity + c]]++;
        for (int64_t b = 0, start = 0; b < nv; b++) {
            const int64_t k = count[b];
            count[b] = start;
            start += k;
        }
        for (int64_t q = 0; q < n; q++) {
            const int64_t i = from != NULL ? from[q] : q;
            to[count[keys[i * arity + c]]++] = i;
        }
    }
}

/* A mesh relabelled by perm (old vertex id -> new, over nv vertices): its
 * nc cells (c2v) and ne edges (e2v) are ordered by the ascending tuple of
 * their new vertex ids, equal tuples in their old order, and written to
 * new_c2v, each cell in its own vertex order, and new_e2v, each edge
 * ascending.  Returns 0, or -1 if no scratch memory could be had. */
int64_t looptile_renumber(const int64_t nv, const int64_t *perm,
                          const int64_t nc, const int64_t *c2v,
                          const int64_t ne, const int64_t *e2v,
                          int64_t *new_c2v, int64_t *new_e2v)
{
    const int64_t n = nc > ne ? nc : ne;
    int64_t *keys = malloc((3 * n + 1) * sizeof *keys);
    int64_t *order = malloc((n + 1) * sizeof *order);
    int64_t *scratch = malloc((n + 1) * sizeof *scratch);
    int64_t *count = malloc((nv + 1) * sizeof *count);
    if (keys == NULL || order == NULL || scratch == NULL || count == NULL) {
        free(keys);
        free(order);
        free(scratch);
        free(count);
        return -1;
    }
    /* an edge's keys are its new row */
    lexsort_rows(ne, 2, e2v, perm, nv, keys, order, scratch, count);
    for (int64_t q = 0; q < ne; q++) {
        new_e2v[2 * q] = keys[2 * order[q]];
        new_e2v[2 * q + 1] = keys[2 * order[q] + 1];
    }
    lexsort_rows(nc, 3, c2v, perm, nv, keys, order, scratch, count);
    for (int64_t q = 0; q < nc; q++)
        for (int k = 0; k < 3; k++)
            new_c2v[3 * q + k] = perm[c2v[3 * order[q] + k]];
    free(keys);
    free(order);
    free(scratch);
    free(count);
    return 0;
}

/* The partition of looptile.partition, over nc cells, ne edges and nv
 * vertices.  One numbering holds the elements of all three spaces: cells
 * at [0, nc), edges at nc + [0, ne), vertices at nc + ne + [0, nv); owner,
 * core, at_owner and strip are indexed by it.  A rank stores each space
 * ordered by (region, id). */

enum { CORE, OWNED, EXEC, NONEXEC };  /* regions, in storage order */

static inline int region(const int64_t rank, const int64_t depth,
                         const int64_t owner, const char core,
                         const int64_t strip)
{
    return owner == rank ? (core ? CORE : OWNED)
                         : (strip < depth ? EXEC : NONEXEC);
}

/* The global pass, once per partition, in time linear in the mesh.  Rank
 * r owns the cells [starts[r], starts[r + 1]).  Writes the cells around
 * each vertex as a CSR ascending by cell (vertex_offsets, room for nv + 1;
 * vertex_cells, for 3 nc); each cell's three sides as edge ids (cell_edges,
 * 3 nc; -1 for a side that is no edge); and per element its owner, the
 * lowest owner among its cells, its core flag, set when the cells around
 * each of its vertices have one owner, and at_owner, its local id on its
 * owner; next has room for 6 n_ranks counts.  Cell owners ascend with the
 * cell, so a vertex's lowest and highest cell owners are those of the
 * first and last cell of its row.  Returns 0; or, with the element's id in
 * fault[0], 1 for the first vertex in no cell, 2 for the first edge that is
 * no cell's side, 3 for the first edge whose vertex pair an earlier edge
 * holds. */
int64_t looptile_partition_mesh(const int64_t nc, const int64_t ne,
                                const int64_t nv, const int64_t *c2v,
                                const int64_t *e2v, const int64_t n_ranks,
                                const int64_t *starts, int64_t *vertex_offsets,
                                int64_t *vertex_cells, int64_t *cell_edges,
                                int64_t *owner, char *core, int64_t *at_owner,
                                int64_t *next, int64_t *fault)
{
    int64_t *cell_owner = owner, *edge_owner = owner + nc,
            *vertex_owner = owner + nc + ne;
    char *cell_core = core, *edge_core = core + nc, *vertex_core = core + nc + ne;
    /* per space and rank, where its next core and its next other owned
     * element go: an owner stores the core elements of a space first, then
     * the others it owns, each ascending */
    int64_t *cell_next = next, *edge_next = next + 2 * n_ranks,
            *vertex_next = next + 4 * n_ranks;
    for (int64_t r = 0; r < 6 * n_ranks; r++)
        next[r] = 0;

    bucket_sources(nc, 3, c2v, nv, vertex_offsets, vertex_cells);
    for (int64_t v = 0; v < nv; v++)
        if (vertex_offsets[v] == vertex_offsets[v + 1]) {
            fault[0] = v;
            return 1;
        }

    for (int64_t r = 0; r < n_ranks; r++)
        for (int64_t c = starts[r]; c < starts[r + 1]; c++)
            cell_owner[c] = r;
    for (int64_t v = 0; v < nv; v++) {
        const int64_t o = cell_owner[vertex_cells[vertex_offsets[v]]];
        vertex_owner[v] = o;
        vertex_core[v] = o == cell_owner[vertex_cells[vertex_offsets[v + 1] - 1]];
        vertex_next[2 * o + 1] += vertex_core[v];
    }
    for (int64_t c = 0; c < nc; c++) {
        cell_core[c] = vertex_core[c2v[3 * c]] && vertex_core[c2v[3 * c + 1]]
                       && vertex_core[c2v[3 * c + 2]];
        cell_next[2 * cell_owner[c] + 1] += cell_core[c];
    }

    /* edge (a, b) is the side of each cell around a that holds b: the
     * cell's side i + j - 1 for a at position i and b at position j != i.
     * The first such cell is the lowest, so its owner is the edge's */
    for (int64_t i = 0; i < 3 * nc; i++)
        cell_edges[i] = -1;
    for (int64_t e = 0; e < ne; e++) {
        const int64_t a = e2v[2 * e], b = e2v[2 * e + 1];
        edge_owner[e] = -1;
        for (int64_t q = vertex_offsets[a]; q < vertex_offsets[a + 1]; q++) {
            const int64_t c = vertex_cells[q], *tri = c2v + 3 * c;
            const int i = tri[0] == a ? 0 : tri[1] == a ? 1 : 2;
            const int j = i != 0 && tri[0] == b ? 0 : i != 1 && tri[1] == b ? 1
                          : i != 2 && tri[2] == b ? 2 : -1;
            if (j < 0)
                continue;
            if (cell_edges[3 * c + i + j - 1] >= 0) {
                fault[0] = e;
                return 3;
            }
            cell_edges[3 * c + i + j - 1] = e;
            if (edge_owner[e] < 0)
                edge_owner[e] = cell_owner[c];
        }
        if (edge_owner[e] < 0) {
            fault[0] = e;
            return 2;
        }
        edge_core[e] = vertex_core[a] && vertex_core[b];
        edge_next[2 * edge_owner[e] + 1] += edge_core[e];
    }

    const int64_t ends[3] = {nc, nc + ne, nc + ne + nv};
    for (int64_t s = 0, g = 0; s < 3; s++)
        for (int64_t *space_next = next + 2 * n_ranks * s; g < ends[s]; g++)
            at_owner[g] = space_next[2 * owner[g] + !core[g]]++;
    return 0;
}

/* Give element g of a space the strip k unless it has one; then count it
 * in its region of listed, and a halo element also in peers at its owner,
 * and widen listed's id range.  Returns whether g was new. */
static inline int list_element(const int64_t g, const int64_t k,
                               const int64_t rank, const int64_t depth,
                               const int64_t *owner, const char *core,
                               int64_t *strip, int64_t *listed, int64_t *peers)
{
    if (strip[g] >= 0)
        return 0;
    strip[g] = k;
    const int r = region(rank, depth, owner[g], core[g], k);
    listed[r]++;
    if (r >= EXEC)
        peers[owner[g]]++;
    if (g < listed[4])
        listed[4] = g;
    if (g > listed[5])
        listed[5] = g;
    return 1;
}

/* The first pass of one rank, in time linear in its local elements.  strip
 * is -1 for every element on entry.  A breadth-first search from the
 * rank's cells [lo, hi), strip 0, gives each cell that shares a vertex
 * with a cell of strip k < depth strip k + 1; queue has room for every
 * cell.  A vertex or edge lies on the local cells around it and takes the
 * lowest strip of those.  Per space s, listed[6 s + k] receives the size
 * of region k, listed[6 s + 4] and listed[6 s + 5] the lowest and highest
 * id with a strip, and listed[18 + s n_ranks + o] how many of its halo
 * elements rank o owns. */
void looptile_partition_grow(const int64_t nc, const int64_t ne,
                             const int64_t nv, const int64_t *c2v,
                             const int64_t *vertex_offsets,
                             const int64_t *vertex_cells,
                             const int64_t *cell_edges, const int64_t *owner,
                             const char *core, const int64_t rank,
                             const int64_t depth, const int64_t n_ranks,
                             const int64_t lo, const int64_t hi,
                             int64_t *strip, int64_t *queue, int64_t *listed)
{
    const int64_t base[3] = {0, nc, nc + ne}, size[3] = {nc, ne, nv};
    for (int s = 0; s < 3; s++) {
        int64_t *l = listed + 6 * s;
        l[0] = l[1] = l[2] = l[3] = 0;
        l[4] = size[s];
        l[5] = -1;
    }
    for (int64_t i = 18; i < 18 + 3 * n_ranks; i++)
        listed[i] = 0;
#define LIST(s, g, k)                                                        \
    list_element(g, k, rank, depth, owner + base[s], core + base[s],        \
                 strip + base[s], listed + 6 * (s), listed + 18 + (s) * n_ranks)

    int64_t tail = 0;
    for (int64_t c = lo; c < hi; c++)
        if (LIST(0, c, 0))
            queue[tail++] = c;
    /* cells queue by strip, so an element's first strip is its lowest, and
     * a vertex already listed has had its cells queued */
    for (int64_t head = 0; head < tail; head++) {
        const int64_t c = queue[head], k = strip[c];
        for (int j = 0; j < 3; j++) {
            const int64_t v = c2v[3 * c + j];
            if (!LIST(2, v, k) || k == depth)
                continue;
            for (int64_t q = vertex_offsets[v]; q < vertex_offsets[v + 1]; q++)
                if (LIST(0, vertex_cells[q], k + 1))
                    queue[tail++] = vertex_cells[q];
        }
    }
    for (int64_t head = 0; head < tail; head++) {
        const int64_t c = queue[head];
        for (int j = 0; j < 3; j++)
            if (cell_edges[3 * c + j] >= 0)
                LIST(1, cell_edges[3 * c + j], strip[c]);
    }
#undef LIST
}

/* The second pass of one rank, from the strips and listed its first pass
 * left.  One counting pass over each space's id range writes its local
 * elements ordered by (region, id) to ids[s], and each halo element, at
 * local id i and owned by rank o, as the pair (i, at_owner) to the table
 * at tables[s n_ranks + o], which it leaves pointing past its pairs.  Then
 * the local cells' and edges' vertices go to local_c2v and local_e2v in
 * local ids, and every strip back to -1.  Each output has room for exactly
 * what it receives. */
void looptile_partition_write(const int64_t nc, const int64_t ne,
                              const int64_t *c2v, const int64_t *e2v,
                              const int64_t *owner, const char *core,
                              const int64_t *at_owner, const int64_t rank,
                              const int64_t depth, const int64_t n_ranks,
                              const int64_t *listed, int64_t *strip,
                              int64_t *const *ids, int64_t **tables,
                              int64_t *local_c2v, int64_t *local_e2v)
{
    const int64_t base[3] = {0, nc, nc + ne};
    int64_t n[3];
    for (int s = 0; s < 3; s++) {
        const int64_t *l = listed + 6 * s;
        int64_t next[4] = {0, l[0], l[0] + l[1], l[0] + l[1] + l[2]};
        for (int64_t g = base[s] + l[4]; g <= base[s] + l[5]; g++) {
            if (strip[g] < 0)
                continue;
            const int r = region(rank, depth, owner[g], core[g], strip[g]);
            const int64_t i = next[r]++;
            ids[s][i] = g - base[s];
            if (r >= EXEC) {
                int64_t **table = tables + s * n_ranks + owner[g];
                (*table)[0] = i;
                (*table)[1] = at_owner[g];
                *table += 2;
            }
        }
        n[s] = next[3];
    }

    /* the vertices' strips give way to their local ids */
    int64_t *vertex_strip = strip + nc + ne;
    for (int64_t i = 0; i < n[2]; i++)
        vertex_strip[ids[2][i]] = i;
    for (int64_t i = 0; i < 3 * n[0]; i++)
        local_c2v[i] = vertex_strip[c2v[3 * ids[0][i / 3] + i % 3]];
    for (int64_t i = 0; i < 2 * n[1]; i++)
        local_e2v[i] = vertex_strip[e2v[2 * ids[1][i / 2] + i % 2]];

    for (int s = 0; s < 3; s++)
        for (int64_t i = 0; i < n[s]; i++)
            strip[base[s] + ids[s][i]] = -1;
}
