"""Per-element reference executor for loop chains.

It calls one Python body per iteration, with views onto the datasets, exactly
as the executor once did.  It is slow but easy to read, and serves as the
oracle that the whole-list kernels of ``looptile.executor`` are checked
against: ``execute_untiled`` must equal an ascending run, and
``execute_schedule`` a run over the same schedule, bit for bit.

A per-element body receives one view per descriptor: a direct access gets
the element's own values, a mapped access a list of the target elements'
values.  Read accesses are slices of a read-only view; write and increment
accesses are mutable slices, so an increment adds straight into its target.
"""

from __future__ import annotations

import numpy as np

from looptile.chain import AccessMode, Loop, LoopChain, Region


def edge_inc(x, verts):
    verts[0] += x
    verts[1] += x


def cell_inc(res, verts):
    for v in verts:
        v += res


def edge_read(out, verts):
    out[:] = verts[0] + verts[1]


def cell_read(out, verts):
    out[:] = verts[0] + verts[1] + verts[2]


BODIES = {"edge_inc": edge_inc, "cell_inc": cell_inc,
          "edge_read": edge_read, "cell_read": cell_read}


def _run_loop(loop: Loop, binding, datasets, elements, rows_of) -> None:
    """Run the loop's body over ``elements``, one call per element.

    A mapped access finds its target ids in ``rows_of[map name]`` at the
    element's position in ``elements``.
    """
    body = BODIES[loop.kernel]
    plan = []
    for d, name in zip(loop.descriptors, binding.args):
        ds = datasets[name]
        values = ds.values
        if d.mode is AccessMode.READ:
            values = values.view()
            values.flags.writeable = False
        if d.is_direct:
            plan.append((values, ds.values_per_element, None, 1))
        else:
            plan.append((values, ds.values_per_element,
                         rows_of[d.map.name].tolist(), d.map.arity))

    # Python ints index faster than numpy scalars
    for pos, e in enumerate(np.asarray(elements).tolist()):
        args = []
        for values, k, rows, a in plan:
            if rows is None:
                args.append(values[e * k:(e + 1) * k])
            else:
                args.append([values[t * k:(t + 1) * k]
                             for t in rows[pos * a:(pos + 1) * a]])
        body(*args)


def run_per_element(chain: LoopChain, bindings, datasets, schedule=None,
                    exchange=None) -> None:
    """Run ``chain`` one element at a time with the preset bodies.

    Without ``schedule``: loops in chain order, each over its executable
    elements in ascending order, through the global maps.  With one: core
    tiles, then ``exchange.end()`` if an exchange is given, then boundary
    tiles; within a region tiles run by color, same-colored ones in schedule
    order, and each tile runs its loops in chain order through its local
    maps.  The non-exec tile never runs.
    """
    if schedule is None:
        for loop, binding in zip(chain.loops, bindings):
            rows_of = {d.map.name: d.map.values
                       for d in loop.descriptors if not d.is_direct}
            _run_loop(loop, binding, datasets,
                      range(loop.space.executable_size), rows_of)
        return
    for region in (Region.CORE, Region.BOUNDARY):
        if region is Region.BOUNDARY and exchange is not None:
            exchange.end()
        tiles = sorted((t for t in schedule.tiles if t.region is region),
                       key=lambda t: t.color)
        for tile in tiles:
            for j, (loop, binding) in enumerate(zip(chain.loops, bindings)):
                elements = tile.iteration_lists.get(j)
                if elements is None or not len(elements):
                    continue
                rows_of = {d.map.name: tile.local_maps[j, d.map.name]
                           for d in loop.descriptors if not d.is_direct}
                _run_loop(loop, binding, datasets, elements, rows_of)
