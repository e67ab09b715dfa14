"""Directed-graph plumbing: strongly connected and terminal components,
and the component count of a skew product by holonomy."""

from __future__ import annotations

from array import array


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
                if target in on_stack and index[target] < low[node]:
                    low[node] = index[target]
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


def skew_components(columns, products, root: int, identity: int) -> int | None:
    """Strongly connected components of a skew product, counted on its base.

    The product's states are pairs (u, j) of a base node u and a fibre
    element j of a finite abelian group J.  Each move is a flat column
    (targets, twists): it sends (u, j) to (targets[u], twists[u]·j), where
    twists is a sequence, or one int when the move twists every node
    alike; products[r][s] is the index of r·s and `identity` that of J's
    unit.  Returns None unless the base graph on the nodes
    0 .. len(targets) - 1 is strongly connected.

    One depth-first search from `root` decides that with Tarjan's low
    links: any node other than the root whose low link is its own index
    closes a component without the root, so the search stops there, and
    since no component is ever closed before the root's, every visited
    node is still on Tarjan's stack and needs no flag.  The search's tree
    sets a potential φ with φ(v) = twist·φ(u); the defects
    φ(v)⁻¹·twist·φ(u) of all edges generate a subgroup H, and the count
    is the index [J : H] (the voltage-graph criterion, Gross and Tucker,
    *Topological Graph Theory*, ch. 2: every move translates J, so a
    component is a coset of H in each fibre).  The defects are read a
    column at a time, and the rest are skipped once H is all of J.  With
    a one-element J (products ((0,),)) the nodes are the states, and the
    result is 1 exactly when the graph the columns draw is strongly
    connected.
    """
    size, moves = len(columns[0][0]), len(columns)
    order = array("i", [-1]) * size  # discovery index
    low = array("i", [0]) * size
    phi = array("i", [-1]) * size
    order[root], phi[root] = 0, identity
    found = 1
    # the search path, with the next column to try at each of its nodes
    path, nexts = array("i", [root]), array("i", [0])
    while path:
        u = path[-1]
        c = nexts[-1]
        least = low[u]
        while c < moves:
            targets, twists = columns[c]
            c += 1
            v = targets[u]
            seen = order[v]
            if seen < 0:
                break
            if seen < least:
                least = seen
        else:
            path.pop()
            nexts.pop()
            if least == order[u]:
                if u != root:
                    return None
            elif least < low[path[-1]]:
                low[path[-1]] = least
            continue
        low[u] = least
        nexts[-1] = c
        order[v] = low[v] = found
        found += 1
        phi[v] = products[twists if type(twists) is int else twists[u]][phi[u]]
        path.append(v)
        nexts.append(0)
    if found < size:
        return None
    del order, low
    inverse = [row.index(identity) for row in products]
    subgroup = {identity}
    for targets, twists in columns:
        # the column's distinct (φ(v), twist, φ(u)), gathered in C
        heads = map(phi.__getitem__, targets)
        if type(twists) is int:
            row = products[twists]
            defects = {products[inverse[h]][row[t]] for h, t in set(zip(heads, phi))}
        else:
            defects = {
                products[inverse[h]][products[s][t]] for h, s, t in set(zip(heads, twists, phi))
            }
        queue = list(subgroup)
        for x in queue:
            for d in defects:
                y = products[d][x]
                if y not in subgroup:
                    subgroup.add(y)
                    queue.append(y)
        if len(subgroup) == len(products):
            break
    return len(products) // len(subgroup)
