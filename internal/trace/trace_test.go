package trace_test

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"snappif/internal/trace"
)

func TestTableRender(t *testing.T) {
	tbl := trace.NewTable("demo", "name", "value")
	tbl.AddRow("alpha", 1)
	tbl.AddRow("b", 22.5)
	out := tbl.String()
	if !strings.Contains(out, "demo") {
		t.Fatal("title missing")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[3], "alpha  1") {
		t.Fatalf("row misaligned: %q", lines[3])
	}
	if !strings.Contains(lines[4], "22.5") {
		t.Fatalf("float not rendered to one decimal: %q", lines[4])
	}
	if tbl.Len() != 2 {
		t.Fatalf("Len = %d", tbl.Len())
	}
}

func TestTableCSVQuoting(t *testing.T) {
	tbl := trace.NewTable("", "a", "b")
	tbl.AddRow(`hello, "world"`, 3)
	var b strings.Builder
	if err := tbl.CSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n\"hello, \"\"world\"\"\",3\n"
	if b.String() != want {
		t.Fatalf("CSV = %q, want %q", b.String(), want)
	}
}

func TestTableMarkdown(t *testing.T) {
	tbl := trace.NewTable("", "x", "y")
	tbl.AddRow(1, 2)
	var b strings.Builder
	tbl.Markdown(&b)
	want := "| x | y |\n| --- | --- |\n| 1 | 2 |\n"
	if b.String() != want {
		t.Fatalf("markdown = %q", b.String())
	}
}

func TestSampleStats(t *testing.T) {
	var s trace.Sample
	if s.N() != 0 || s.Min() != 0 || s.Max() != 0 || s.Mean() != 0 || s.Stddev() != 0 {
		t.Fatal("empty sample not all-zero")
	}
	if s.Percentile(50) != 0 {
		t.Fatal("empty percentile not zero")
	}
	for _, x := range []int{4, 8, 6, 2} {
		s.Add(x)
	}
	if s.N() != 4 || s.Min() != 2 || s.Max() != 8 {
		t.Fatalf("n=%d min=%d max=%d", s.N(), s.Min(), s.Max())
	}
	if s.Mean() != 5 {
		t.Fatalf("mean = %v", s.Mean())
	}
	if got := s.Stddev(); math.Abs(got-math.Sqrt(5)) > 1e-9 {
		t.Fatalf("stddev = %v, want √5", got)
	}
	if s.Percentile(0) != 2 || s.Percentile(50) != 4 || s.Percentile(100) != 8 {
		t.Fatalf("percentiles: %d %d %d", s.Percentile(0), s.Percentile(50), s.Percentile(100))
	}
	if !strings.Contains(s.String(), "n=4") {
		t.Fatalf("String() = %q", s.String())
	}
}

// Property: Min ≤ Percentile(p) ≤ Max and Min ≤ Mean ≤ Max for any sample.
func TestSampleStatsProperty(t *testing.T) {
	f := func(xs []int16, pRaw uint8) bool {
		if len(xs) == 0 {
			return true
		}
		var s trace.Sample
		for _, x := range xs {
			s.Add(int(x))
		}
		p := float64(pRaw) / 255 * 100
		q := s.Percentile(p)
		return s.Min() <= q && q <= s.Max() &&
			float64(s.Min()) <= s.Mean() && s.Mean() <= float64(s.Max())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
