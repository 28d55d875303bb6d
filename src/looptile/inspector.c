/* The per-element passes of looptile.inspector: projection through a map,
 * tiling and first-fit coloring; and the Cuthill-McKee walk that
 * looptile.mesh renumbers vertices with.  One fixed source, compiled once per
 * compiler through looptile.codegen.load.  A direct access needs no pass:
 * its loop's tiling met, at each element, the held projection it replaces.
 *
 * Every array is C-contiguous int64.  The Python callers check each length
 * and each tile id once, when they bind a pass to its arrays, and
 * mesh.rcm_ordering checks its CSR, so nothing here checks a bound.  A tile
 * id is -1 (no tile) or lies in [0, n_tiles).
 * A pair of tiles low < high is written as the key low * n_tiles + high;
 * each function that writes keys returns how many it wrote, at most one per
 * candidate it visits, and writes none when keys is NULL.
 */

#include <stdint.h>
#include <stdlib.h>

static inline int64_t pair_key(const int64_t a, const int64_t b,
                               const int64_t n_tiles)
{
    return a < b ? a * n_tiles + b : b * n_tiles + a;
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
        for (int64_t i = lo + 1; i < hi; i++) {
            const int64_t w = rows[i], dw = offsets[w + 1] - offsets[w];
            int64_t j = i;
            for (; j > lo; j--) {
                const int64_t u = rows[j - 1], du = offsets[u + 1] - offsets[u];
                if (du < dw || (du == dw && u <= w))
                    break;
                rows[j] = u;
            }
            rows[j] = w;
        }
        for (int64_t i = lo; i < hi; i++)
            if (!seen[rows[i]]) {
                seen[rows[i]] = 1;
                order[tail++] = rows[i];
            }
    }
    free(seen);
    return tail;
}
