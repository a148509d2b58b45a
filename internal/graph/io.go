package graph

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WriteEdgeList serializes g in a simple text format: a header line
// "n <count>" followed by one "u v" pair per undirected edge, then
// optional "id <v> <id>" lines for non-identity ID assignments. Lines
// beginning with '#' are comments.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "n %d\n", g.N()); err != nil {
		return err
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "%d %d\n", e[0], e[1]); err != nil {
			return err
		}
	}
	for v := 0; v < g.N(); v++ {
		if g.ID(v) != NodeID(v) {
			if _, err := fmt.Fprintf(bw, "id %d %d\n", v, g.ID(v)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses the format written by WriteEdgeList. Unknown node
// counts (missing header) are inferred from the largest index seen.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<24)
	n := -1
	var edges [][2]int
	ids := make(map[int]NodeID)
	maxIdx := -1
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch {
		case fields[0] == "n" && len(fields) == 2:
			v, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad node count: %w", lineNo, err)
			}
			n = v
		case fields[0] == "id" && len(fields) == 3:
			v, err1 := strconv.Atoi(fields[1])
			id, err2 := strconv.ParseInt(fields[2], 10, 64)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("graph: line %d: bad id assignment", lineNo)
			}
			ids[v] = NodeID(id)
			if v > maxIdx {
				maxIdx = v
			}
		case len(fields) == 2:
			// Endpoints are parsed as int32, the node index width, so a
			// larger index is an error here rather than wrapping onto
			// another node in Builder.AddEdge.
			u64, err1 := strconv.ParseInt(fields[0], 10, 32)
			v64, err2 := strconv.ParseInt(fields[1], 10, 32)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("graph: line %d: bad edge %q", lineNo, line)
			}
			u, v := int(u64), int(v64)
			edges = append(edges, [2]int{u, v})
			if u > maxIdx {
				maxIdx = u
			}
			if v > maxIdx {
				maxIdx = v
			}
		default:
			return nil, fmt.Errorf("graph: line %d: unrecognized line %q", lineNo, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if n == -1 {
		n = maxIdx + 1
	}
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	if len(ids) > 0 {
		full := make([]NodeID, n)
		for v := range full {
			full[v] = NodeID(v)
		}
		// Visit assignments in sorted node order so that an error (and the
		// SetIDs argument construction) is the same on every run.
		nodes := make([]int, 0, len(ids))
		for v := range ids {
			nodes = append(nodes, v)
		}
		sort.Ints(nodes)
		for _, v := range nodes {
			if v < 0 || v >= n {
				return nil, fmt.Errorf("graph: id assignment for out-of-range node %d", v)
			}
			full[v] = ids[v]
		}
		if err := g.SetIDs(full); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// WriteDOT renders g in Graphviz DOT format, optionally highlighting a
// node subset (e.g. the adversary's awake set).
func WriteDOT(w io.Writer, g *Graph, highlight []int) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "graph G {"); err != nil {
		return err
	}
	hl := make(map[int]bool, len(highlight))
	for _, v := range highlight {
		hl[v] = true
	}
	keys := make([]int, 0, len(hl))
	for v := range hl {
		keys = append(keys, v)
	}
	sort.Ints(keys)
	for _, v := range keys {
		if _, err := fmt.Fprintf(bw, "  %d [style=filled fillcolor=gold];\n", v); err != nil {
			return err
		}
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "  %d -- %d;\n", e[0], e[1]); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(bw, "}"); err != nil {
		return err
	}
	return bw.Flush()
}
