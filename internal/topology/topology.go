// Package topology models the networks the hot-potato simulation routes
// on: the N×N torus used by the report's experiments and the N×N mesh used
// by the theoretical analysis in Busch, Herlihy & Wattenhofer (SPAA 2001).
//
// Nodes are identified by dense integer IDs laid out row-major, exactly as
// the report lays out ROSS logical processes ("Row 1 contains LP 0..31,
// Row 2 contains LP 32..." for N = 32). All routing geometry — which links
// bring a packet closer to its destination (good links), the one-bend
// home-run path, wrap-around distances — lives here so the routing policies
// and the simulation model can share one audited implementation.
package topology

import "fmt"

// Direction identifies one of the four bidirectional links of a node.
type Direction uint8

// The four link directions, plus None for "no link chosen". North decreases
// the row index, South increases it; West decreases the column, East
// increases it (with wrap-around on the torus).
const (
	North Direction = iota
	East
	South
	West
	None Direction = 0xFF
)

// NumDirections is the degree of an interior node.
const NumDirections = 4

// String returns the compass name of the direction.
func (d Direction) String() string {
	switch d {
	case North:
		return "North"
	case East:
		return "East"
	case South:
		return "South"
	case West:
		return "West"
	case None:
		return "None"
	}
	return fmt.Sprintf("Direction(%d)", uint8(d))
}

// Opposite returns the reverse direction; packets sent out direction d
// arrive at the neighbour on the link Opposite(d).
func (d Direction) Opposite() Direction {
	switch d {
	case North:
		return South
	case South:
		return North
	case East:
		return West
	case West:
		return East
	}
	return None
}

// DirSet is a small set of directions, used for free-link and good-link
// sets during a routing decision.
type DirSet uint8

// Add returns the set with d included.
func (s DirSet) Add(d Direction) DirSet { return s | 1<<d }

// Has reports whether d is in the set.
func (s DirSet) Has(d Direction) bool { return d != None && s&(1<<d) != 0 }

// Remove returns the set with d excluded.
func (s DirSet) Remove(d Direction) DirSet { return s &^ (1 << d) }

// Count returns the number of directions in the set.
func (s DirSet) Count() int {
	n := 0
	for d := Direction(0); d < NumDirections; d++ {
		if s.Has(d) {
			n++
		}
	}
	return n
}

// Nth returns the i-th direction of the set in North, East, South, West
// order. It panics if i is out of range; callers index with a value drawn
// uniformly from [0, Count()).
func (s DirSet) Nth(i int) Direction {
	for d := Direction(0); d < NumDirections; d++ {
		if s.Has(d) {
			if i == 0 {
				return d
			}
			i--
		}
	}
	panic("topology: DirSet.Nth index out of range")
}

// Empty reports whether the set has no directions.
func (s DirSet) Empty() bool { return s == 0 }

// String lists the members, e.g. "{North East}".
func (s DirSet) String() string {
	out := "{"
	for d := Direction(0); d < NumDirections; d++ {
		if s.Has(d) {
			if len(out) > 1 {
				out += " "
			}
			out += d.String()
		}
	}
	return out + "}"
}

// Network is the geometry interface shared by the torus and the mesh.
type Network interface {
	// Size returns the number of nodes.
	Size() int
	// N returns the side length of the square network.
	N() int
	// Neighbor returns the node reached by following the link in
	// direction d from node id, or -1 if the link does not exist
	// (mesh boundary).
	Neighbor(id int, d Direction) int
	// Links returns the set of directions that have links at node id.
	Links(id int) DirSet
	// Dist returns the minimum hop distance between two nodes.
	Dist(a, b int) int
	// GoodDirs returns the set of directions that strictly reduce the
	// distance from 'from' to 'to' (the report's "good links").
	GoodDirs(from, to int) DirSet
	// HomeRunDir returns the next hop of the one-bend home-run path from
	// 'from' to 'to': first along the row toward the destination column,
	// then along the column (report §1.2.4). Returns None when from == to.
	HomeRunDir(from, to int) Direction
}

// grid is what the torus and the mesh share: the side length and every
// node's position, filled at construction so the per-decision geometry below
// never divides by the side length.
type grid struct {
	side int
	at   []coord // indexed by node ID
}

type coord struct{ row, col int32 }

func newGrid(n int) grid {
	g := grid{side: n, at: make([]coord, 0, n*n)}
	for row := 0; row < n; row++ {
		for col := 0; col < n; col++ {
			g.at = append(g.at, coord{int32(row), int32(col)})
		}
	}
	return g
}

// N returns the side length.
func (g *grid) N() int { return g.side }

// Size returns N*N.
func (g *grid) Size() int { return len(g.at) }

// Coord returns the (row, column) of a node ID.
func (g *grid) Coord(id int) (row, col int) { return int(g.at[id].row), int(g.at[id].col) }

// Torus is an N×N wrap-around mesh: every node has degree four and the
// maximum distance between two nodes is N-1 (versus 2(N-1) for the mesh),
// which is why the report simulates the torus.
//
// A Torus is one pointer wide, so a Network holds it without boxing and
// every call through the interface reaches the tables in one hop.
type Torus struct{ *torusTables }

type torusTables struct {
	grid
	// ring[d] is axisDist for a destination d positions ahead on a ring of
	// side nodes (0 <= d < side), already spelled as the row and column
	// directions it makes good and the home-run hop it implies.
	ring []ringEntry
}

type ringEntry struct {
	dist             int32
	rowGood, colGood DirSet
	rowRun, colRun   Direction
}

// NewTorus returns an N×N torus. N must be at least 2.
func NewTorus(n int) Torus {
	if n < 2 {
		panic("topology: torus side must be >= 2")
	}
	t := Torus{&torusTables{grid: newGrid(n), ring: make([]ringEntry, n)}}
	for d := range t.ring {
		dist, neg, pos := axisDist(0, d, n)
		e := ringEntry{dist: int32(dist), rowRun: None, colRun: None}
		if neg {
			e.rowGood, e.colGood = e.rowGood.Add(North), e.colGood.Add(West)
			e.rowRun, e.colRun = North, West
		}
		if pos { // after neg: South and East win ties
			e.rowGood, e.colGood = e.rowGood.Add(South), e.colGood.Add(East)
			e.rowRun, e.colRun = South, East
		}
		t.ring[d] = e
	}
	return t
}

// ID returns the node at (row, column); coordinates wrap.
func (t Torus) ID(row, col int) int {
	row = mod(row, t.side)
	col = mod(col, t.side)
	return row*t.side + col
}

// Links reports the full degree-four link set of every torus node.
func (t Torus) Links(int) DirSet {
	return DirSet(0).Add(North).Add(East).Add(South).Add(West)
}

// Neighbor returns the node across the link in direction d: one row or one
// column away, wrapping at the edges — the report's LP-number calculation,
// e.g. East from lp is ((lp/N)*N) + ((lp+1) mod N).
func (t Torus) Neighbor(id int, d Direction) int {
	c, n := t.at[id], t.side
	switch d {
	case North:
		if c.row == 0 {
			return id + len(t.at) - n
		}
		return id - n
	case South:
		if int(c.row) == n-1 {
			return id - (len(t.at) - n)
		}
		return id + n
	case East:
		if int(c.col) == n-1 {
			return id - (n - 1)
		}
		return id + 1
	case West:
		if c.col == 0 {
			return id + (n - 1)
		}
		return id - 1
	}
	return -1
}

// axisDist returns the wrap-around distance along one axis of side n from
// position from to position to (both in [0, n)) and the direction sign(s)
// that reduce it: negative (North/West), positive (South/East), or both
// when the two ways around are equally short.
func axisDist(from, to, n int) (dist int, negGood, posGood bool) {
	d := to - from
	if d < 0 {
		d += n
	}
	if d == 0 {
		return 0, false, false
	}
	forward := d      // moving in the positive direction
	backward := n - d // moving in the negative direction
	switch {
	case forward < backward:
		return forward, false, true
	case backward < forward:
		return backward, true, false
	default:
		return forward, true, true
	}
}

// toward returns the ring entries for the row and column offsets from
// 'from' to 'to'.
func (t Torus) toward(from, to int) (row, col ringEntry) {
	f, g := t.at[from], t.at[to]
	dr, dc := int(g.row-f.row), int(g.col-f.col)
	if dr < 0 {
		dr += t.side
	}
	if dc < 0 {
		dc += t.side
	}
	return t.ring[dr], t.ring[dc]
}

// Dist returns the minimum hop distance with wrap-around.
func (t Torus) Dist(a, b int) int {
	row, col := t.toward(a, b)
	return int(row.dist + col.dist)
}

// GoodDirs returns every direction that strictly reduces Dist(from, to).
// On a torus a dimension at exactly half the side length is good both
// ways around.
func (t Torus) GoodDirs(from, to int) DirSet {
	row, col := t.toward(from, to)
	return row.rowGood | col.colGood
}

// HomeRunDir returns the next hop of the row-first one-bend path. Ties
// (destination exactly opposite on the ring) resolve East / South so the
// home-run path of a packet is a fixed function of (from, to), as the
// algorithm requires: a Running packet re-requests the same path every
// step.
func (t Torus) HomeRunDir(from, to int) Direction {
	row, col := t.toward(from, to)
	if col.colRun != None {
		return col.colRun
	}
	return row.rowRun
}

// Mesh is an N×N grid without wrap-around; boundary nodes have degree
// three and corners degree two. It is the topology of the SPAA 2001
// theoretical analysis.
type Mesh struct{ *grid }

// NewMesh returns an N×N mesh. N must be at least 2.
func NewMesh(n int) Mesh {
	if n < 2 {
		panic("topology: mesh side must be >= 2")
	}
	g := newGrid(n)
	return Mesh{&g}
}

// ID returns the node at (row, column); coordinates must be in range.
func (m Mesh) ID(row, col int) int { return row*m.side + col }

// Neighbor returns the node across the link in direction d, or -1 at the
// boundary.
func (m Mesh) Neighbor(id int, d Direction) int {
	c, n := m.at[id], m.side
	switch d {
	case North:
		if c.row > 0 {
			return id - n
		}
	case South:
		if int(c.row) < n-1 {
			return id + n
		}
	case East:
		if int(c.col) < n-1 {
			return id + 1
		}
	case West:
		if c.col > 0 {
			return id - 1
		}
	}
	return -1
}

// Links returns the directions that exist at node id (2, 3 or 4 of them).
func (m Mesh) Links(id int) DirSet {
	var s DirSet
	for d := Direction(0); d < NumDirections; d++ {
		if m.Neighbor(id, d) >= 0 {
			s = s.Add(d)
		}
	}
	return s
}

// Dist returns the Manhattan distance.
func (m Mesh) Dist(a, b int) int {
	f, g := m.at[a], m.at[b]
	return abs(int(f.row-g.row)) + abs(int(f.col-g.col))
}

// GoodDirs returns the directions that strictly reduce the Manhattan
// distance; on a mesh there is at most one per dimension.
func (m Mesh) GoodDirs(from, to int) DirSet {
	var s DirSet
	f, g := m.at[from], m.at[to]
	switch {
	case g.row < f.row:
		s = s.Add(North)
	case g.row > f.row:
		s = s.Add(South)
	}
	switch {
	case g.col < f.col:
		s = s.Add(West)
	case g.col > f.col:
		s = s.Add(East)
	}
	return s
}

// HomeRunDir returns the next hop of the row-first one-bend path.
func (m Mesh) HomeRunDir(from, to int) Direction {
	f, g := m.at[from], m.at[to]
	switch {
	case g.col > f.col:
		return East
	case g.col < f.col:
		return West
	case g.row > f.row:
		return South
	case g.row < f.row:
		return North
	}
	return None
}

func mod(a, n int) int {
	a %= n
	if a < 0 {
		a += n
	}
	return a
}

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}
