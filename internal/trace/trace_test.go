package trace

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestEmitAndRead(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf)
	l.Emit(RoundStart(1, 0))
	l.Emit(ClientUpdate(1, 7, 4, 1000, 800, 0.25, 0))
	l.Emit(Aggregate(1, 6))
	l.Emit(RoundEnd(1, 0.25))
	l.Emit(Event{Kind: KindNote, Note: "hello 42"})

	events, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 5 {
		t.Fatalf("read %d events", len(events))
	}
	if events[0].Kind != KindRoundStart || events[0].Seq != 1 {
		t.Fatalf("first event: %+v", events[0])
	}
	cu := events[1]
	if cu.Client != 7 || cu.Modules != 4 || cu.BytesDn != 1000 || cu.BytesUp != 800 {
		t.Fatalf("client update: %+v", cu)
	}
	if events[3].Kind != KindRoundEnd || events[3].SimTime != 0.25 {
		t.Fatalf("round end: %+v", events[3])
	}
	if events[4].Note != "hello 42" {
		t.Fatalf("note: %+v", events[4])
	}
}

func TestSequenceMonotone(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf)
	for i := 0; i < 10; i++ {
		l.Emit(RoundEnd(i, float64(i)))
	}
	events, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range events {
		if e.Seq != int64(i+1) {
			t.Fatalf("seq %d at index %d", e.Seq, i)
		}
	}
}

func TestNilLoggerIsSafe(t *testing.T) {
	var l *Logger
	l.Emit(RoundStart(1, 0))           // must not panic
	(&Logger{}).Emit(RoundEnd(1, 0.5)) // the zero value is safe too
}

func TestSummarize(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf)
	for r := 1; r <= 3; r++ {
		l.Emit(RoundStart(r, 0))
		l.Emit(ClientUpdate(r, 0, 3, 100, 50, float64(r), 0))
		l.Emit(ClientUpdate(r, 1, 3, 100, 50, float64(r)*2, 0))
	}
	events, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(events)
	if s.Rounds != 3 {
		t.Fatalf("rounds %d", s.Rounds)
	}
	if s.BytesDown != 600 || s.BytesUp != 300 {
		t.Fatalf("bytes %d/%d", s.BytesDown, s.BytesUp)
	}
	// SimTime sums the per-round slot maxima — max(1,2) + max(2,4) + max(3,6)
	// — matching the live Costs.SimTime accounting, not the global maximum.
	if s.SimTime != 12 {
		t.Fatalf("sim time %v", s.SimTime)
	}
}

func TestSummarizePrefersRoundEndSlot(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf)
	l.Emit(RoundStart(1, 0))
	l.Emit(ClientUpdate(1, 0, 3, 100, 50, 2, 0))
	// A skipped device's wasted link time can exceed every client update's
	// SimTime; round_end carries the authoritative slot.
	l.Emit(RoundEnd(1, 5))
	l.Emit(RoundStart(2, 0))
	l.Emit(ClientUpdate(2, 0, 3, 100, 50, 3, 0)) // no round_end: falls back to the max
	events, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if s := Summarize(events); s.SimTime != 8 {
		t.Fatalf("sim time %v, want 8 (5 from round_end + 3 from fallback)", s.SimTime)
	}
}

func TestCloseRounds(t *testing.T) {
	closed := []Event{RoundStart(1, 0), ClientUpdate(1, 0, 3, 100, 50, 2, 0), RoundEnd(1, 5)}
	if got := CloseRounds(closed); len(got) != 3 || got[0] != closed[0] || got[1] != closed[1] || got[2] != closed[2] {
		t.Fatalf("a log whose rounds are all closed must come back equal, got %+v", got)
	}
	open := []Event{
		RoundStart(1, 0), ClientUpdate(1, 0, 3, 100, 50, 2, 0), ClientUpdate(1, 1, 3, 100, 50, 9, 1),
		RoundStart(2, 0), ClientUpdate(2, 0, 3, 100, 50, 3, 0),
	}
	got := CloseRounds(open)
	if len(got) != len(open)+2 || got[3] != RoundEnd(1, 2) || got[6] != RoundEnd(2, 3) {
		t.Fatalf("each open round must get its on-time maximum as round_end: %+v", got)
	}
	if len(open) != 5 || open[3].Kind != KindRoundStart {
		t.Fatal("the input log must not be modified")
	}
}

func TestSummarizeStaleAndChurn(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf)
	l.Emit(RoundStart(1, 0)) // calibration round: no deadline yet
	l.Emit(ClientUpdate(1, 0, 3, 100, 50, 2, 0))
	l.Emit(RoundEnd(1, 2))
	l.Emit(RoundStart(2, 1.5))
	l.Emit(Churn(2, 0, "leave", 0))
	l.Emit(Churn(2, 9, "drop_pending", 70))
	l.Emit(Churn(2, 5, "join", 40))
	// A stale update's SimTime spans rounds; without a round_end it must NOT
	// become the round's slot fallback — only on-time updates may.
	l.Emit(ClientUpdate(2, 1, 3, 100, 50, 9.7, 1))
	l.Emit(ClientUpdate(2, 2, 3, 10, 5, 1.2, 0))
	events, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if events[3].Deadline != 1.5 {
		t.Fatalf("round_start deadline lost: %+v", events[3])
	}
	if events[0].Deadline != 0 {
		t.Fatalf("zero deadline must be omitted, not invented: %+v", events[0])
	}
	if stale := events[7]; stale.Kind != KindClientUpdate || stale.Stale != 1 {
		t.Fatalf("late update record: %+v", stale)
	}
	if drop := events[5]; drop.Kind != KindChurn || drop.Note != "drop_pending" || drop.BytesDn != 70 {
		t.Fatalf("drop_pending record: %+v", drop)
	}
	s := Summarize(events)
	if s.Rounds != 2 {
		t.Fatalf("rounds %d", s.Rounds)
	}
	// Churn bytes (dropped straggler's download, join bootstrap) count.
	if s.BytesDown != 100+70+40+100+10 || s.BytesUp != 50+50+5 {
		t.Fatalf("bytes %d/%d", s.BytesDown, s.BytesUp)
	}
	// Round 2 slot falls back to the on-time update's 1.2, never the stale 9.7.
	if s.SimTime != 2+1.2 {
		t.Fatalf("sim time %v, want 3.2", s.SimTime)
	}
}

// failAfter fails every Write after the first n.
type failAfter struct {
	n    int
	seen int
}

func (w *failAfter) Write(p []byte) (int, error) {
	w.seen++
	if w.seen > w.n {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

func TestLoggerErrRecordsFirstWriteFailure(t *testing.T) {
	l := New(&failAfter{n: 1})
	l.Emit(RoundStart(1, 0))
	if err := l.Err(); err != nil {
		t.Fatalf("unexpected early error: %v", err)
	}
	l.Emit(Aggregate(1, 2))  // dropped
	l.Emit(RoundEnd(1, 0.6)) // also dropped
	err := l.Err()
	if err == nil {
		t.Fatal("write failures must surface via Err")
	}
	if !strings.Contains(err.Error(), "event 2") {
		t.Fatalf("Err must keep the FIRST failure: %v", err)
	}
	var nilLogger *Logger
	if nilLogger.Err() != nil {
		t.Fatal("nil logger must report no error")
	}
}

func TestCheckSeqDetectsGaps(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf)
	l.Emit(RoundStart(1, 0))
	l.Emit(Aggregate(1, 2))
	l.Emit(RoundEnd(1, 0.6))
	events, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckSeq(events); err != nil {
		t.Fatalf("intact log flagged: %v", err)
	}
	gapped := append(append([]Event{}, events[0]), events[2]) // drop seq 2
	if err := CheckSeq(gapped); err == nil {
		t.Fatal("dropped event must be detected")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("{\"kind\":\"eval\"}\nnot json\n")); err == nil {
		t.Fatal("expected decode error")
	}
}
