"""Directed-graph plumbing: strongly connected and terminal components."""

from __future__ import annotations


def strongly_connected_components(nodes, successors) -> list[list]:
    """Iterative Tarjan; `successors` maps a node to an iterable of nodes."""
    index: dict = {}
    low: dict = {}
    on_stack: set = set()
    stack: list = []
    components: list[list] = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(successors(root)))]
        while work:
            node, edge_iter = work[-1]
            if node not in index:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            descended = False
            for target in edge_iter:
                if target not in index:
                    work.append((target, iter(successors(target))))
                    descended = True
                    break
                if target in on_stack:
                    low[node] = min(low[node], index[target])
            if descended:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
    return components


def terminal_components(nodes, successors) -> list[list]:
    """Strongly connected components with no edge leaving them."""
    components = strongly_connected_components(nodes, successors)
    home = {}
    for i, component in enumerate(components):
        for node in component:
            home[node] = i
    out = []
    for i, component in enumerate(components):
        if all(home[t] == i for node in component for t in successors(node)):
            out.append(component)
    return out
