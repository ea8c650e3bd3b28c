package graph

// UnionFind is a disjoint-set forest with union by rank and path
// compression. It backs Kruskal's MST and connectivity checks.
type UnionFind struct {
	parent []int
	rank   []int
	sets   int
}

// NewUnionFind returns a union-find over n singleton elements.
func NewUnionFind(n int) *UnionFind {
	uf := &UnionFind{}
	uf.Reset(n)
	return uf
}

// Reset makes uf a union-find over n singleton elements again, reusing
// its arrays when they are long enough. The zero UnionFind is ready for
// Reset.
func (uf *UnionFind) Reset(n int) {
	if cap(uf.parent) < n {
		uf.parent, uf.rank = make([]int, n), make([]int, n)
	}
	uf.parent, uf.rank = uf.parent[:n], uf.rank[:n]
	for i := range uf.parent {
		uf.parent[i] = i
	}
	clear(uf.rank)
	uf.sets = n
}

// Find returns the representative of x's set.
func (uf *UnionFind) Find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

// Union merges the sets of a and b, returning true if they were distinct.
func (uf *UnionFind) Union(a, b int) bool {
	ra, rb := uf.Find(a), uf.Find(b)
	if ra == rb {
		return false
	}
	if uf.rank[ra] < uf.rank[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	if uf.rank[ra] == uf.rank[rb] {
		uf.rank[ra]++
	}
	uf.sets--
	return true
}

// Same reports whether a and b are in the same set.
func (uf *UnionFind) Same(a, b int) bool { return uf.Find(a) == uf.Find(b) }

// Sets returns the current number of disjoint sets.
func (uf *UnionFind) Sets() int { return uf.sets }
