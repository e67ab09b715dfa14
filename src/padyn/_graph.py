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
    element j of a finite abelian group J.  Each move is a column:
    column[u] = (v, twist) sends (u, j) to (v, twist·j), where
    products[r][s] is the index of r·s and `identity` that of J's unit.
    Returns None unless the base graph on the nodes 0 .. len(column) - 1
    is strongly connected.  Otherwise a forward BFS from `root` sets a
    potential φ with φ(v) = twist·φ(u) along its tree; the defects
    φ(v)⁻¹·twist·φ(u) of all edges generate a subgroup H, and the count is
    the index [J : H] (the voltage-graph criterion, Gross and Tucker,
    *Topological Graph Theory*, ch. 2: every move translates J, so a
    component is a coset of H in each fibre).
    """
    size = len(columns[0])
    phi = array("i", [-1]) * size
    phi[root] = identity
    queue = [root]
    for u in queue:
        here = phi[u]
        for column in columns:
            v, twist = column[u]
            if phi[v] < 0:
                phi[v] = products[twist][here]
                queue.append(v)
    if len(queue) < size:
        return None
    # the reverse index: the sources of the edges into v are
    # sources[start[v]:start[v + 1]]
    start = array("q", [0]) * (size + 1)
    for column in columns:
        for v, _ in column:
            start[v + 1] += 1
    for v in range(size):
        start[v + 1] += start[v]
    fill = start[:-1]
    sources = array("i", [0]) * start[-1]
    for column in columns:
        for u, (v, _) in enumerate(column):
            sources[fill[v]] = u
            fill[v] += 1
    seen = bytearray(size)
    seen[root] = True
    queue = [root]
    for v in queue:
        for u in sources[start[v] : start[v + 1]]:
            if not seen[u]:
                seen[u] = True
                queue.append(u)
    if len(queue) < size:
        return None
    inverse = [row.index(identity) for row in products]
    defects = {
        products[inverse[phi[v]]][products[twist][phi[u]]]
        for column in columns
        for u, (v, twist) in enumerate(column)
    }
    subgroup = {identity}
    queue = [identity]
    for x in queue:
        for d in defects:
            y = products[d][x]
            if y not in subgroup:
                subgroup.add(y)
                queue.append(y)
    return len(products) // len(subgroup)
