package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("a", 1)
	tb.AddRow("longer-name", 2.5)
	out := tb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Fatalf("unexpected line count %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "demo") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "longer-name") || !strings.Contains(out, "2.50") {
		t.Fatalf("row content missing:\n%s", out)
	}
	// Header and separator share width.
	if len(lines[1]) != len(lines[2]) {
		t.Fatalf("separator misaligned:\n%s", out)
	}
}

func TestSeriesStats(t *testing.T) {
	s := &Series{Name: "x"}
	if !math.IsNaN(s.Mean()) || !math.IsNaN(s.Last()) {
		t.Fatal("empty series should be NaN")
	}
	s.Add(0, 1)
	s.Add(1, 3)
	if s.Mean() != 2 || s.Last() != 3 {
		t.Fatalf("mean=%v last=%v", s.Mean(), s.Last())
	}
}

func TestSparklineMonotone(t *testing.T) {
	s := &Series{Name: "up"}
	for i := 0; i < 8; i++ {
		s.Add(float64(i), float64(i))
	}
	spark := []rune(s.Sparkline())
	if len(spark) != 8 {
		t.Fatalf("sparkline length %d", len(spark))
	}
	if spark[0] != '▁' || spark[7] != '█' {
		t.Fatalf("sparkline endpoints wrong: %s", string(spark))
	}
	flat := &Series{Name: "flat"}
	flat.Add(0, 5)
	flat.Add(1, 5)
	if fs := flat.Sparkline(); fs != "▁▁" {
		t.Fatalf("flat sparkline = %q", fs)
	}
}

func TestFigurePrint(t *testing.T) {
	f := NewFigure("fig", "step", "acc")
	a := f.AddSeries("nebula")
	a.Add(0, 0.5)
	a.Add(1, 0.9)
	var b strings.Builder
	f.Fprint(&b)
	if !strings.Contains(b.String(), "nebula") || !strings.Contains(b.String(), "mean=0.7000") {
		t.Fatalf("figure output:\n%s", b.String())
	}
	var pts strings.Builder
	f.FprintPoints(&pts)
	if !strings.Contains(pts.String(), "step\tnebula") {
		t.Fatalf("points output:\n%s", pts.String())
	}
}

func TestFmtHelpers(t *testing.T) {
	if FmtBytes(512) != "512 B" {
		t.Fatal(FmtBytes(512))
	}
	if FmtBytes(1536) != "1.50 KiB" {
		t.Fatal(FmtBytes(1536))
	}
	if FmtBytes(3<<20) != "3.00 MiB" {
		t.Fatal(FmtBytes(3 << 20))
	}
	if FmtPct(0.1234) != "12.34%" {
		t.Fatal(FmtPct(0.1234))
	}
	if FmtDur(0.0005) != "500.0 µs" {
		t.Fatal(FmtDur(0.0005))
	}
	if FmtDur(0.5) != "500.0 ms" {
		t.Fatal(FmtDur(0.5))
	}
	if FmtDur(90) != "90.00 s" {
		t.Fatal(FmtDur(90))
	}
	if FmtDur(600) != "10.0 min" {
		t.Fatal(FmtDur(600))
	}
}

func TestTimeToTarget(t *testing.T) {
	times := []float64{1, 2, 3, 4}
	accs := []float64{0.2, 0.5, 0.8, 0.9}
	if got := TimeToTarget(times, accs, 0.75); got != 3 {
		t.Fatalf("TimeToTarget = %v", got)
	}
	if got := TimeToTarget(times, accs, 0.99); !math.IsNaN(got) {
		t.Fatalf("unreached target should be NaN, got %v", got)
	}
}

func TestCountersInsertionOrderAndArithmetic(t *testing.T) {
	c := NewCounters("link faults")
	c.Add("zulu", 2)
	c.Add("alpha", 1)
	c.Add("zulu", 3)
	c.Set("mike", 7)
	if got := c.Get("zulu"); got != 5 {
		t.Fatalf("Get(zulu) = %d, want 5", got)
	}
	if got := c.Get("missing"); got != 0 {
		t.Fatalf("Get(missing) = %d, want 0", got)
	}
	// Output must follow insertion order, not map or alphabetical order.
	want := "== link faults ==\nzulu   5\nalpha  1\nmike   7\n"
	if got := c.String(); got != want {
		t.Fatalf("String:\n%q\nwant:\n%q", got, want)
	}
}
