package dag

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// raceEnabled is set by race_test.go under -race, where allocation counts
// include the detector's own and mean nothing.
var raceEnabled bool

// pair reads a test edge: e[1] depends on e[0].
func pair(e [2]string) (string, string) { return e[0], e[1] }

func mustBuild(t *testing.T, nodes []string, edges [][2]string) *Graph {
	t.Helper()
	g, err := Build(nodes, edges, pair)
	if err != nil {
		t.Fatalf("Build(%v, %v): %v", nodes, edges, err)
	}
	return &g
}

// topoSort orders g as the NJS dispatches it: each round takes every Ready
// node, in insertion order, and marks it done. It fails when a round finds
// nothing ready before every node is done.
func topoSort(g *Graph) ([]string, error) {
	done := make([]bool, len(g.ids))
	var order []string
	for len(order) < len(g.ids) {
		ready := readyIDs(g, done)
		if len(ready) == 0 {
			return order, fmt.Errorf("Ready stalled after %v", order)
		}
		for _, id := range ready {
			i, _ := g.Index(id)
			done[i] = true
		}
		order = append(order, ready...)
	}
	return order, nil
}

// readyIDs collects the IDs Ready visits, given each node's done flag.
func readyIDs(g *Graph, done []bool) []string {
	var out []string
	g.Ready(func(i int) bool { return done[i] }, func(i int) { out = append(out, g.ids[i]) })
	return out
}

// descendants returns the IDs of the nodes below id, sorted, or an error
// for an unknown ID.
func descendants(g *Graph, id string) ([]string, error) {
	i, ok := g.Index(id)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownNode, id)
	}
	var out []string
	for j, below := range g.Descendants(i) {
		if below {
			out = append(out, g.ids[j])
		}
	}
	sort.Strings(out)
	return out, nil
}

func TestAddNodeDuplicate(t *testing.T) {
	if _, err := Build([]string{"a", "b", "a"}, nil, pair); !errors.Is(err, ErrDuplicateNode) {
		t.Fatalf("err = %v, want ErrDuplicateNode", err)
	}
}

func TestAddEdgeValidation(t *testing.T) {
	nodes := []string{"a", "b"}
	if _, err := Build(nodes, [][2]string{{"a", "x"}}, pair); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("unknown to: %v", err)
	}
	if _, err := Build(nodes, [][2]string{{"x", "a"}}, pair); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("unknown from: %v", err)
	}
	if _, err := Build(nodes, [][2]string{{"a", "b"}, {"a", "a"}}, pair); !errors.Is(err, ErrSelfEdge) {
		t.Fatalf("self edge: %v", err)
	}
}

// The cycle error names a node on the cycle, even when the first node Kahn's
// pass could not order (z) only hangs off it.
func TestCycleRejected(t *testing.T) {
	_, err := Build([]string{"z", "r", "a", "b", "c"},
		[][2]string{{"r", "a"}, {"a", "b"}, {"b", "c"}, {"c", "a"}, {"c", "z"}}, pair)
	if !errors.Is(err, ErrCycle) {
		t.Fatalf("err = %v, want ErrCycle", err)
	}
	if named := namedNode(err, []string{"z", "r", "a", "b", "c"}); named != "a" && named != "b" && named != "c" {
		t.Fatalf("err = %v names %q, want a node of the cycle a→b→c", err, named)
	}
}

func TestDuplicateEdgeIsNoop(t *testing.T) {
	g := mustBuild(t, []string{"a", "b"}, [][2]string{{"a", "b"}, {"a", "b"}})
	if got := g.Roots(); fmt.Sprint(got) != "[a]" {
		t.Fatalf("Roots = %v", got)
	}
	if got, err := descendants(g, "a"); err != nil || fmt.Sprint(got) != "[b]" {
		t.Fatalf("Descendants(a) = %v, %v; want exactly [b]", got, err)
	}
	if order, err := topoSort(g); err != nil || fmt.Sprint(order) != "[a b]" {
		t.Fatalf("dispatch order %v, %v", order, err)
	}
}

func TestTopoSortDiamond(t *testing.T) {
	edges := [][2]string{{"pre", "left"}, {"pre", "right"}, {"left", "post"}, {"right", "post"}}
	g := mustBuild(t, []string{"post", "right", "left", "pre"}, edges)
	order, err := topoSort(g)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[pre right left post]" {
		t.Fatalf("dispatch order = %v", order)
	}
}

func TestTopoSortDeterministic(t *testing.T) {
	build := func() *Graph {
		var nodes []string
		var edges [][2]string
		for i := 0; i < 20; i++ {
			nodes = append(nodes, fmt.Sprintf("n%02d", i))
		}
		for i := 0; i < 19; i += 2 {
			edges = append(edges, [2]string{nodes[i], nodes[i+1]})
		}
		return mustBuild(t, nodes, edges)
	}
	a, _ := topoSort(build())
	b, _ := topoSort(build())
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("nondeterministic dispatch order:\n%v\n%v", a, b)
	}
}

// Roots come in insertion order; a leaf is a node with no descendants.
func TestRootsLeaves(t *testing.T) {
	g := mustBuild(t, []string{"a", "b", "c", "d"},
		[][2]string{{"a", "b"}, {"b", "c"}})
	if got := g.Roots(); fmt.Sprint(got) != "[a d]" {
		t.Fatalf("Roots = %v", got)
	}
	var leaves []string
	for _, id := range []string{"a", "b", "c", "d"} {
		if d, err := descendants(g, id); err == nil && len(d) == 0 {
			leaves = append(leaves, id)
		}
	}
	if fmt.Sprint(leaves) != "[c d]" {
		t.Fatalf("leaves = %v", leaves)
	}
}

func TestReadyFrontier(t *testing.T) {
	g := mustBuild(t, []string{"imp", "run", "exp"},
		[][2]string{{"imp", "run"}, {"run", "exp"}})
	done := make([]bool, 3)
	if got := readyIDs(g, done); fmt.Sprint(got) != "[imp]" {
		t.Fatalf("Ready(∅) = %v", got)
	}
	done[0] = true
	if got := readyIDs(g, done); fmt.Sprint(got) != "[run]" {
		t.Fatalf("Ready(imp) = %v", got)
	}
	done[1] = true
	done[2] = true
	if got := readyIDs(g, done); len(got) != 0 {
		t.Fatalf("Ready(all) = %v, want empty", got)
	}
}

// TestIndex maps every ID to its position in the list Build was given, on a
// diamond inserted out of order and on a graph with a duplicate edge, and
// finds no unknown ID.
func TestIndex(t *testing.T) {
	for _, g := range []*Graph{
		mustBuild(t, []string{"post", "right", "left", "pre"},
			[][2]string{{"pre", "left"}, {"pre", "right"}, {"left", "post"}, {"right", "post"}}),
		mustBuild(t, []string{"b", "a"}, [][2]string{{"a", "b"}, {"a", "b"}}),
	} {
		for want, id := range g.ids {
			if got, ok := g.Index(id); !ok || got != want {
				t.Errorf("Index(%q) = %d, %v; want %d", id, got, ok, want)
			}
		}
		for _, id := range []string{"", "zz", "a0", "pos"} {
			if i, ok := g.Index(id); ok {
				t.Errorf("Index(%q) = %d of %v, want not found", id, i, g.ids)
			}
		}
	}
}

// TestReadyByIndex walks a diamond inserted out of order: Ready visits in
// index order, consults done as it goes, and visits nothing once every node
// is done. Descendants masks by index too, and a duplicate edge counts once.
func TestReadyByIndex(t *testing.T) {
	g := mustBuild(t, []string{"post", "right", "left", "pre"},
		[][2]string{{"pre", "left"}, {"pre", "right"}, {"left", "post"}, {"right", "post"}, {"left", "post"}})
	done := make([]bool, 4)
	if got := readyIDs(g, done); fmt.Sprint(got) != "[pre]" {
		t.Fatalf("Ready(∅) = %v", got)
	}
	done[3] = true
	if got := readyIDs(g, done); fmt.Sprint(got) != "[right left]" {
		t.Fatalf("Ready(pre) = %v", got)
	}
	// A visit that finishes a node ahead of the walk keeps it from being
	// visited: visiting right finishes left too, so only right is visited
	// and post (whose predecessors are now done) follows it. Post comes
	// first in index order, so the walk has already passed it.
	var visited []string
	g.Ready(func(i int) bool { return done[i] }, func(i int) {
		visited = append(visited, g.ids[i])
		done[1], done[2] = true, true
	})
	if fmt.Sprint(visited) != "[right]" {
		t.Fatalf("visited %v, want [right]", visited)
	}
	if got := readyIDs(g, done); fmt.Sprint(got) != "[post]" {
		t.Fatalf("Ready(pre right left) = %v", got)
	}
	done[0] = true
	if got := readyIDs(g, done); len(got) != 0 {
		t.Fatalf("Ready(all) = %v, want nothing", got)
	}
	if got := fmt.Sprint(g.Descendants(3)); got != "[true true true false]" {
		t.Fatalf("Descendants(pre) = %s", got)
	}
	if got := fmt.Sprint(g.Descendants(2)); got != "[true false false false]" {
		t.Fatalf("Descendants(left) = %s", got)
	}
	if got := fmt.Sprint(g.Descendants(0)); got != "[false false false false]" {
		t.Fatalf("Descendants(post) = %s", got)
	}
}

// TestReadyAllocatesNothing gates the NJS dispatch rule: a Ready walk over
// a job's graph allocates nothing, however many nodes it visits.
func TestReadyAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include the race detector's own")
	}
	nodes := make([]string, 64)
	var edges [][2]string
	for i := range nodes {
		nodes[i] = fmt.Sprintf("n%03d", i)
		if i >= 8 {
			edges = append(edges, [2]string{nodes[i-8], nodes[i]})
		}
	}
	g := mustBuild(t, nodes, edges)
	done := make([]bool, len(nodes))
	for i := range done[:24] {
		done[i] = true
	}
	visits := 0
	if allocs := testing.AllocsPerRun(100, func() {
		g.Ready(func(i int) bool { return done[i] }, func(int) { visits++ })
	}); allocs != 0 {
		t.Errorf("Ready allocates %.0f times, want 0", allocs)
	}
	if visits != 101*8 {
		t.Fatalf("Ready visited %d nodes in 101 walks, want 8 a walk", visits)
	}
}

func TestDescendants(t *testing.T) {
	g := mustBuild(t, []string{"a", "b", "c", "d"},
		[][2]string{{"a", "b"}, {"b", "c"}})
	got, err := descendants(g, "a")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[b c]" {
		t.Fatalf("Descendants(a) = %v", got)
	}
	if _, err := descendants(g, "zz"); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("Descendants(zz) err = %v", err)
	}
}

// TestBuildAllocationBudget gates the one-pass build: the graph is returned
// by value, so its one index array is all it allocates, whatever the size of
// the job.
func TestBuildAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include the race detector's own")
	}
	for _, n := range []int{1, 3, 8, 9, 64, 512} {
		nodes := make([]string, n)
		var edges [][2]string
		for i := range nodes {
			nodes[i] = fmt.Sprintf("n%03d", i)
			if i > 0 {
				edges = append(edges, [2]string{nodes[i-1], nodes[i]}, [2]string{nodes[0], nodes[i]})
			}
		}
		if allocs := testing.AllocsPerRun(20, func() {
			if _, err := Build(nodes, edges, pair); err != nil {
				t.Fatal(err)
			}
		}); allocs > 1 {
			t.Errorf("Build of %d nodes and %d edges allocates %.0f times, want at most 1", n, len(edges), allocs)
		}
	}
}

// TestValidateAllocatesNothing: a graph of up to 16 nodes and 80 edges is
// checked in stack scratch, and a larger one allocates only its scratch.
func TestValidateAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include the race detector's own")
	}
	for _, c := range []struct{ n, max int }{{1, 0}, {3, 0}, {8, 0}, {16, 0}, {512, 1}} {
		nodes := make([]string, c.n)
		var edges [][2]string
		for i := range nodes {
			nodes[i] = fmt.Sprintf("n%03d", i)
			if i > 0 {
				edges = append(edges, [2]string{nodes[i-1], nodes[i]}, [2]string{nodes[0], nodes[i]})
			}
		}
		if allocs := testing.AllocsPerRun(20, func() {
			if err := Validate(nodes, edges, pair); err != nil {
				t.Fatal(err)
			}
		}); allocs > float64(c.max) {
			t.Errorf("Validate of %d nodes and %d edges allocates %.0f times, want at most %d", c.n, len(edges), allocs, c.max)
		}
	}
}

// randomDAG returns a random DAG: edges only point from lower to higher
// indices, and the nodes are inserted in shuffled order.
func randomDAG(r *rand.Rand, n int, p float64) ([]string, [][2]string) {
	nodes := make([]string, n)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("n%03d", i)
	}
	var edges [][2]string
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < p {
				edges = append(edges, [2]string{nodes[i], nodes[j]})
			}
		}
	}
	r.Shuffle(n, func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
	return nodes, edges
}

// Property: the dispatch order of a random DAG is a permutation respecting
// all edges.
func TestQuickTopoSortRespectsEdges(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nodes, edges := randomDAG(r, 2+r.Intn(40), 0.15)
		g, err := Build(nodes, edges, pair)
		if err != nil {
			return false
		}
		order, err := topoSort(&g)
		if err != nil || len(order) != len(nodes) {
			return false
		}
		return respectsEdges(order, edges)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: repeatedly consuming Ready() drains any DAG completely, i.e. the
// dispatch loop of the NJS cannot deadlock on a valid job graph.
func TestQuickReadyDrainsDAG(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nodes, edges := randomDAG(r, 1+r.Intn(30), 0.2)
		g, err := Build(nodes, edges, pair)
		if err != nil {
			return false
		}
		_, err = topoSort(&g)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: a back edge on a chain is always rejected as a cycle, and the
// error names a node between the edge's ends.
func TestQuickBackEdgeRejected(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(20)
		nodes := make([]string, n)
		var edges [][2]string
		for i := range nodes {
			nodes[i] = fmt.Sprintf("n%03d", i)
			if i > 0 {
				edges = append(edges, [2]string{nodes[i-1], nodes[i]})
			}
		}
		i := r.Intn(n - 1)
		j := i + 1 + r.Intn(n-i-1)
		edges = append(edges, [2]string{nodes[j], nodes[i]})
		_, err := Build(nodes, edges, pair)
		named := namedNode(err, nodes)
		return errors.Is(err, ErrCycle) && named >= nodes[i] && named <= nodes[j]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// FuzzBuildAgreesWithReference checks Build against a naive reference on
// arbitrary node and edge lists: the first byte picks the node count, the
// next bytes name the nodes (so IDs can repeat), and each remaining byte
// pair is an edge whose ends may name no node. Build must fail exactly when
// the reference does, with the same sentinel; an accepted graph's dispatch
// order must respect every edge and its Roots and Descendants must match
// the reference; a cycle error must name a node that lies on a cycle.
// Validate, which keeps no graph, must fail with Build's very error.
func FuzzBuildAgreesWithReference(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 0, 1, 1, 2})
	f.Add([]byte{3, 0, 1, 2, 0, 1, 1, 2, 2, 0})
	f.Add([]byte{4, 0, 1, 2, 3, 3, 0, 0, 1, 1, 2, 2, 0})
	f.Add([]byte{2, 0, 0})
	f.Add([]byte{2, 0, 1, 0, 9})
	f.Add([]byte{2, 0, 1, 1, 1})
	f.Add([]byte{5, 0, 1, 2, 3, 4, 0, 1, 0, 1, 1, 2, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]) % 16
		data = data[1:]
		if len(data) < n {
			return
		}
		nodes := make([]string, n)
		for i := range nodes {
			nodes[i] = strconv.Itoa(int(data[i]) % 20)
		}
		data = data[n:]
		var edges [][2]string
		for ; len(data) >= 2; data = data[2:] {
			edges = append(edges, [2]string{strconv.Itoa(int(data[0]) % 24), strconv.Itoa(int(data[1]) % 24)})
		}

		succ, want := reference(nodes, edges)
		g, err := Build(nodes, edges, pair)
		if !errors.Is(err, want) {
			t.Fatalf("Build(%v, %v) = %v, reference says %v", nodes, edges, err, want)
		}
		if verr := Validate(nodes, edges, pair); !errors.Is(verr, want) || fmt.Sprint(verr) != fmt.Sprint(err) {
			t.Fatalf("Validate(%v, %v) = %v, Build says %v", nodes, edges, verr, err)
		}
		switch want {
		case ErrCycle:
			named := namedNode(err, nodes)
			if !reaches(succ, named, named) {
				t.Fatalf("Build(%v, %v) = %v: %q lies on no cycle", nodes, edges, err, named)
			}
		case nil:
			order, err := topoSort(&g)
			if err != nil || !respectsEdges(order, edges) {
				t.Fatalf("Build(%v, %v): dispatch order %v, %v", nodes, edges, order, err)
			}
			var roots []string
			hasPred := map[string]bool{}
			for _, e := range edges {
				hasPred[e[1]] = true
			}
			for _, id := range nodes {
				if !hasPred[id] {
					roots = append(roots, id)
				}
			}
			if got := g.Roots(); fmt.Sprint(got) != fmt.Sprint(roots) {
				t.Fatalf("Build(%v, %v): Roots = %v, want %v", nodes, edges, got, roots)
			}
			for _, id := range nodes {
				var desc []string
				for _, x := range nodes {
					if reaches(succ, id, x) {
						desc = append(desc, x)
					}
				}
				sort.Strings(desc)
				got, err := descendants(&g, id)
				if err != nil || fmt.Sprint(got) != fmt.Sprint(desc) {
					t.Fatalf("Build(%v, %v): Descendants(%s) = %v, %v; want %v", nodes, edges, id, got, err, desc)
				}
			}
		}
	})
}

// reference validates nodes and edges the slow way, in Build's order of
// checks, and finds cycles by depth-first search. It returns the adjacency
// it built and the sentinel Build should fail with, or nil.
func reference(nodes []string, edges [][2]string) (map[string][]string, error) {
	succ := map[string][]string{}
	for _, id := range nodes {
		if _, dup := succ[id]; dup {
			return nil, ErrDuplicateNode
		}
		succ[id] = nil
	}
	for _, e := range edges {
		_, okFrom := succ[e[0]]
		_, okTo := succ[e[1]]
		switch {
		case !okFrom || !okTo:
			return nil, ErrUnknownNode
		case e[0] == e[1]:
			return nil, ErrSelfEdge
		}
	}
	for _, e := range edges {
		succ[e[0]] = append(succ[e[0]], e[1])
	}
	for _, id := range nodes {
		if reaches(succ, id, id) {
			return succ, ErrCycle
		}
	}
	return succ, nil
}

// reaches reports whether a path of at least one edge leads from src to dst.
func reaches(succ map[string][]string, src, dst string) bool {
	seen := map[string]bool{}
	stack := append([]string(nil), succ[src]...)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if v == dst {
			return true
		}
		if !seen[v] {
			seen[v] = true
			stack = append(stack, succ[v]...)
		}
	}
	return false
}

// namedNode returns the node a cycle error names, or "" if it names none.
func namedNode(err error, nodes []string) string {
	if err == nil {
		return ""
	}
	for _, id := range nodes {
		if strings.Contains(err.Error(), strconv.Quote(id)) {
			return id
		}
	}
	return ""
}

func respectsEdges(order []string, edges [][2]string) bool {
	pos := map[string]int{}
	for i, id := range order {
		pos[id] = i
	}
	for _, e := range edges {
		if pos[e[0]] >= pos[e[1]] {
			return false
		}
	}
	return true
}
