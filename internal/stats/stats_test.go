package stats

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// TestLinearFitExact: a perfectly linear series must recover slope,
// intercept and R² = 1.
func TestLinearFitExact(t *testing.T) {
	prop := func(a, b int8) bool {
		slope := float64(a)
		intercept := float64(b)
		var x, y []float64
		for i := 0; i < 10; i++ {
			x = append(x, float64(i))
			y = append(y, slope*float64(i)+intercept)
		}
		gs, gi, r2 := LinearFit(x, y)
		if slope == 0 {
			return math.Abs(gi-intercept) < 1e-9
		}
		return math.Abs(gs-slope) < 1e-9 && math.Abs(gi-intercept) < 1e-9 && math.Abs(r2-1) < 1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLinearFitDegenerate(t *testing.T) {
	if s, _, _ := LinearFit([]float64{1}, []float64{2}); s != 0 {
		t.Error("short input must fit zero slope")
	}
	// Vertical data: all x equal.
	s, i, _ := LinearFit([]float64{2, 2, 2}, []float64{1, 2, 3})
	if s != 0 || i != 2 {
		t.Errorf("constant-x fit = %v, %v", s, i)
	}
}

func TestFormatNumber(t *testing.T) {
	cases := map[float64]string{
		3:      "3",
		-12:    "-12",
		3.5:    "3.500",
		0.1234: "0.123",
	}
	for v, want := range cases {
		if got := FormatNumber(v); got != want {
			t.Errorf("FormatNumber(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestTableRender(t *testing.T) {
	tab := Table{Title: "demo", Header: []string{"N", "value"}}
	tab.AddRow("8", "1.5")
	tab.AddRow("16", FormatNumber(2.25))
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"demo", "N", "value", "16", "2.250", "--"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tab := Table{Header: []string{"a", "b"}}
	tab.AddRow("1", "x,y") // needs quoting
	var buf bytes.Buffer
	if err := tab.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,\"x,y\"\n"
	if buf.String() != want {
		t.Errorf("CSV = %q, want %q", buf.String(), want)
	}
}
