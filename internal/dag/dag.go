// Package dag implements the directed acyclic graphs that structure UNICORE
// jobs: an AJO contains job groups and tasks "together with their
// dependencies" (paper §4), and the NJS "makes sure that the dependent parts
// of the UNICORE job are scheduled in the predefined sequence" (§4.2).
//
// A Graph is immutable. Build takes every node ID and every edge at once,
// sorts the node indices by ID, lays the edges out as compressed adjacency
// arrays (one offset array and one index array per direction) and rejects a
// cycle with one pass of Kahn's algorithm, so building costs O((V+E) log V)
// time and one allocation however many actions a job has, for a graph the
// caller keeps; Validate keeps none and allocates nothing up to 16 nodes and
// 80 edges. Edges point from a predecessor to the successor that must wait
// for it. A node is known by its index, its position in Build's ID list, so
// a caller keeps per-node state in one array and finds a node through Index.
package dag

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Common graph errors.
var (
	ErrDuplicateNode = errors.New("dag: duplicate node")
	ErrUnknownNode   = errors.New("dag: unknown node")
	ErrCycle         = errors.New("dag: dependency cycle")
	ErrSelfEdge      = errors.New("dag: self dependency")
)

// Graph is an acyclic dependency graph over string IDs. It never changes
// after Build returns it, so it may be read from several goroutines.
type Graph struct {
	ids []string
	// byID lists the node indices in ascending order of their IDs.
	byID []int32
	// The predecessors of node i are pred[predOff[i]:predOff[i+1]], its
	// successors succ[succOff[i]:succOff[i+1]], each in edge order. A
	// duplicate edge appears twice, which no traversal below minds.
	predOff, pred []int32
	succOff, succ []int32
}

// Build returns the graph with the given nodes, in this order, and edges:
// ends(edges[k]) names a node and the node that depends on (runs after) it.
// It rejects a duplicate ID, an edge naming an unknown node, a self edge and
// a cycle; a cycle error names one node that lies on a cycle. The graph
// keeps ids, so the caller must not modify them afterwards.
func Build[E any](ids []string, edges []E, ends func(E) (before, after string)) (Graph, error) {
	return build(ids, edges, ends, nil)
}

// Validate returns the error Build would return, and keeps nothing.
func Validate[E any](ids []string, edges []E, ends func(E) (before, after string)) error {
	var scratch [256]int32
	_, err := build(ids, edges, ends, scratch[:])
	return err
}

// build is Build in buf (zeroed) or, if that is too small, the heap. It returns
// the graph by value: a caller that drops it keeps buf and ids on its stack.
func build[E any](ids []string, edges []E, ends func(E) (string, string), buf []int32) (Graph, error) {
	n, e := len(ids), len(edges)
	// One backing array: predOff and succOff (n+2 each, see below), pred and
	// succ (e each), byID, then Kahn's in-degrees and queue (n each).
	size := 2*(n+2) + 2*e + 3*n
	buf = slices.Grow(buf[:0], size)[:size]
	predOff, succOff, rest := buf[:n+2], buf[n+2:2*n+4], buf[2*n+4:]
	g := Graph{ids: ids, predOff: predOff[:n+1], succOff: succOff[:n+1], pred: rest[:e], succ: rest[e : 2*e], byID: rest[2*e : 2*e+n]}
	indeg, queue := rest[2*e+n:2*e+2*n], rest[2*e+2*n:]
	for i := range g.byID {
		g.byID[i] = int32(i)
	}
	slices.SortFunc(g.byID, func(a, b int32) int { return strings.Compare(ids[a], ids[b]) })
	for k := 1; k < n; k++ {
		if ids[g.byID[k]] == ids[g.byID[k-1]] {
			return Graph{}, fmt.Errorf("%w: %q", ErrDuplicateNode, ids[g.byID[k]])
		}
	}
	for _, ed := range edges {
		before, after := ends(ed)
		from, okFrom := g.Index(before)
		to, okTo := g.Index(after)
		switch {
		case !okFrom:
			return Graph{}, fmt.Errorf("%w: %q", ErrUnknownNode, before)
		case !okTo:
			return Graph{}, fmt.Errorf("%w: %q", ErrUnknownNode, after)
		case from == to:
			return Graph{}, fmt.Errorf("%w: %q", ErrSelfEdge, before)
		}
		succOff[from+2]++
		predOff[to+2]++
	}
	// With each degree counted two slots up, the prefix sums put node i's
	// start in slot i+1; filling through that slot as a cursor moves it to
	// node i's end, which is node i+1's start.
	for i := 2; i < n+2; i++ {
		succOff[i] += succOff[i-1]
		predOff[i] += predOff[i-1]
	}
	for _, ed := range edges {
		before, after := ends(ed)
		from, _ := g.Index(before)
		to, _ := g.Index(after)
		g.succ[succOff[from+1]], g.pred[predOff[to+1]] = int32(to), int32(from)
		succOff[from+1]++
		predOff[to+1]++
	}
	if on := g.onCycle(indeg, queue); on >= 0 {
		return Graph{}, fmt.Errorf("%w: action %q lies on a cycle", ErrCycle, ids[on])
	}
	return g, nil
}

// Index returns the index of the node with the given ID: its position in
// the ID list Build was given.
func (g *Graph) Index(id string) (int, bool) {
	k := sort.Search(len(g.byID), func(m int) bool { return g.ids[g.byID[m]] >= id })
	if k == len(g.byID) || g.ids[g.byID[k]] != id {
		return -1, false
	}
	return int(g.byID[k]), true
}

// onCycle runs Kahn's algorithm with the given scratch arrays and returns -1
// when every node can be ordered. Otherwise every node left unordered has
// an unordered predecessor, so walking predecessors among them must revisit
// a node; that node lies on a cycle and is returned.
func (g *Graph) onCycle(indeg, queue []int32) int32 {
	tail := 0
	for i := range indeg {
		indeg[i] = g.predOff[i+1] - g.predOff[i]
		if indeg[i] == 0 {
			queue[tail] = int32(i)
			tail++
		}
	}
	for head := 0; head < tail; head++ {
		for _, s := range g.succ[g.succOff[queue[head]]:g.succOff[queue[head]+1]] {
			if indeg[s]--; indeg[s] == 0 {
				queue[tail] = s
				tail++
			}
		}
	}
	if tail == len(indeg) {
		return -1
	}
	v := int32(slices.IndexFunc(indeg, func(d int32) bool { return d > 0 }))
	for indeg[v] > 0 { // unordered and not yet walked
		indeg[v] = -1
		for _, p := range g.pred[g.predOff[v]:g.predOff[v+1]] {
			if indeg[p] != 0 {
				v = p
				break
			}
		}
	}
	return v
}

// Roots returns the nodes with no predecessors, in insertion order: those
// ready before anything is done.
func (g *Graph) Roots() []string {
	var out []string
	for i, id := range g.ids {
		if g.predOff[i] == g.predOff[i+1] {
			out = append(out, id)
		}
	}
	return out
}

// Ready calls visit, in index order, with every node i that is not done
// while all its predecessors are: done(i) is false and done(p) true for each
// predecessor p. This is the NJS dispatch rule: a task becomes eligible
// exactly when every predecessor has completed. done is asked as the walk
// goes, so a node that an earlier visit finished is not visited. Ready
// allocates nothing.
func (g *Graph) Ready(done func(i int) bool, visit func(i int)) {
next:
	for i := range g.ids {
		if done(i) {
			continue
		}
		for _, p := range g.pred[g.predOff[i]:g.predOff[i+1]] {
			if !done(int(p)) {
				continue next
			}
		}
		visit(i)
	}
}

// Descendants reports, for every node, whether it is reachable from node i
// (i itself excluded): the mask is indexed like the nodes.
func (g *Graph) Descendants(i int) []bool {
	below := make([]bool, len(g.ids))
	stack := []int32{int32(i)}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.succ[g.succOff[v]:g.succOff[v+1]] {
			if !below[s] {
				below[s] = true
				stack = append(stack, s)
			}
		}
	}
	return below
}
