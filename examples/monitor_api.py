"""Using the application-facing ServingMonitor API.

The other examples are phrased as experiments (an adversary plays against an
algorithm).  Real applications usually just *have* a stream of link up/down
events -- an overlay manager, a service mesh, a wireless testbed -- and want to
ask structural questions while the graph keeps changing.  That is what
:class:`repro.ServingMonitor` is for: feed it each tick's changes, and
query any node; answers are definite or explicitly "still propagating", and
the paper's O(1) amortized-complexity guarantee caps how often the latter can
happen per change.

The scenario below maintains a small service-overlay graph, watches one
"tenant group" of nodes, and reports when that group becomes a fully-meshed
clique (a common trigger for switching from relayed to direct communication).

Run with::

    python examples/monitor_api.py
"""

from __future__ import annotations

import itertools

from repro import ServingMonitor


def main() -> None:
    n = 20
    group = [2, 5, 7, 11]
    monitor = ServingMonitor(n=n, structure="clique")

    # A scripted stream of link events: background links plus the tenant
    # group's links coming up one by one (with one flap in the middle).
    group_links = list(itertools.combinations(group, 2))
    event_stream = [
        {"insert": [(0, 1), (1, 2)]},
        {"insert": [(2, 3), (3, 4), (0, 4)]},
        {"insert": [group_links[0], group_links[1]]},
        {"insert": [group_links[2]], "delete": [(1, 2)]},
        {"insert": [group_links[3], group_links[4]]},
        {"delete": [group_links[0]]},          # flap ...
        {"insert": [(6, 12), (12, 13)]},
        {"insert": [group_links[0]]},          # ... and recovery
        {"insert": [group_links[5]]},          # the mesh is now complete
        {"insert": [(13, 14), (14, 15)]},
        {},                                    # quiet ticks: announcements drain
        {},
        {},
    ]

    became_clique_at = None
    for tick, events in enumerate(event_stream, start=1):
        monitor.update(insert=events.get("insert", ()), delete=events.get("delete", ()))
        answer = monitor.is_clique(group)
        if not answer.definite:
            status = "propagating..."
        elif answer.value:
            status = "FULL MESH"
            if became_clique_at is None:
                became_clique_at = tick
        else:
            status = "not meshed yet"
        print(f"tick {tick:2d}: group {group} -> {status}")

    # Give the structures a few quiet ticks to finish propagating, then confirm.
    settled_rounds = monitor.settle()
    final = monitor.is_clique(group)
    print(f"\nafter {settled_rounds} more quiet ticks: group meshed = {final.value}")
    when = became_clique_at if became_clique_at is not None else "after settling"
    print(f"first observed as a full mesh: tick {when}")
    print(f"members' own views: "
          f"{[sorted(map(sorted, monitor.cliques_of(v, len(group)))) for v in group[:1]][0]}")
    print(f"amortized round complexity so far: {monitor.amortized_round_complexity:.3f} "
          f"(the paper bounds this by a constant)")
    assert final.value is True


if __name__ == "__main__":
    main()
