package topology

import "testing"

// refGrid is the geometry as first written, straight from the definitions:
// coordinates by division, wrap-around by a signed modulus. The table- and
// compare-driven Torus and Mesh must agree with it on every input.
type refGrid struct {
	side int
	wrap bool
}

func (g refGrid) coord(id int) (row, col int) { return id / g.side, id % g.side }

func (g refGrid) neighbor(id int, d Direction) int {
	row, col := g.coord(id)
	switch d {
	case North:
		row--
	case South:
		row++
	case East:
		col++
	case West:
		col--
	default:
		return -1
	}
	if g.wrap {
		return mod(row, g.side)*g.side + mod(col, g.side)
	}
	if row < 0 || row >= g.side || col < 0 || col >= g.side {
		return -1
	}
	return row*g.side + col
}

// axis returns the distance along one axis and which signs reduce it.
func (g refGrid) axis(from, to int) (dist int, neg, pos bool) {
	if !g.wrap {
		return abs(to - from), to < from, to > from
	}
	fwd := mod(to-from, g.side)
	bwd := mod(from-to, g.side)
	if fwd == 0 {
		return 0, false, false
	}
	return min(fwd, bwd), bwd <= fwd, fwd <= bwd
}

func (g refGrid) dist(a, b int) int {
	ar, ac := g.coord(a)
	br, bc := g.coord(b)
	dr, _, _ := g.axis(ar, br)
	dc, _, _ := g.axis(ac, bc)
	return dr + dc
}

func (g refGrid) goodDirs(from, to int) DirSet {
	var s DirSet
	fr, fc := g.coord(from)
	tr, tc := g.coord(to)
	if _, neg, pos := g.axis(fr, tr); neg || pos {
		if neg {
			s = s.Add(North)
		}
		if pos {
			s = s.Add(South)
		}
	}
	if _, neg, pos := g.axis(fc, tc); neg || pos {
		if neg {
			s = s.Add(West)
		}
		if pos {
			s = s.Add(East)
		}
	}
	return s
}

// homeRunDir is the row-first one-bend path; East and South win ties.
func (g refGrid) homeRunDir(from, to int) Direction {
	fr, fc := g.coord(from)
	tr, tc := g.coord(to)
	if _, neg, pos := g.axis(fc, tc); pos {
		return East
	} else if neg {
		return West
	}
	if _, neg, pos := g.axis(fr, tr); pos {
		return South
	} else if neg {
		return North
	}
	return None
}

// TestGeometryMatchesReference compares every geometry query on every node
// pair with the arithmetic definitions, for even and odd sides: odd sides
// have no "exactly opposite" tie, even sides have one per axis.
func TestGeometryMatchesReference(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 8, 32} {
		for _, tc := range []struct {
			name string
			net  Network
			ref  refGrid
		}{
			{"torus", NewTorus(n), refGrid{side: n, wrap: true}},
			{"mesh", NewMesh(n), refGrid{side: n}},
		} {
			net, ref := tc.net, tc.ref
			if net.Size() != n*n || net.N() != n {
				t.Fatalf("%s %d: Size %d, N %d", tc.name, n, net.Size(), net.N())
			}
			ties := 0
			for a := 0; a < n*n; a++ {
				for _, d := range []Direction{North, East, South, West, None} {
					if got, want := net.Neighbor(a, d), ref.neighbor(a, d); got != want {
						t.Fatalf("%s %d: Neighbor(%d, %v) = %d, want %d", tc.name, n, a, d, got, want)
					}
				}
				for b := 0; b < n*n; b++ {
					if got, want := net.Dist(a, b), ref.dist(a, b); got != want {
						t.Fatalf("%s %d: Dist(%d, %d) = %d, want %d", tc.name, n, a, b, got, want)
					}
					good := net.GoodDirs(a, b)
					if want := ref.goodDirs(a, b); good != want {
						t.Fatalf("%s %d: GoodDirs(%d, %d) = %v, want %v", tc.name, n, a, b, good, want)
					}
					if got, want := net.HomeRunDir(a, b), ref.homeRunDir(a, b); got != want {
						t.Fatalf("%s %d: HomeRunDir(%d, %d) = %v, want %v", tc.name, n, a, b, got, want)
					}
					if good.Has(North) && good.Has(South) || good.Has(East) && good.Has(West) {
						ties++
					}
				}
			}
			if wantTies := ref.wrap && n%2 == 0; (ties > 0) != wantTies {
				t.Fatalf("%s %d: %d tie cases exercised, want some: %v", tc.name, n, ties, wantTies)
			}
		}
	}
}
