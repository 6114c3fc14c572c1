package fed

import (
	"repro/internal/edgenet"
	"repro/internal/metrics"
)

// FaultModel replays a lossy edge-cloud link inside the simulation loop: the
// same edgenet.FaultConfig that perturbs real testbed connections decides
// here, per (operation, round, device, attempt), whether an exchange is lost
// and how much link time it costs. Decisions come from FaultConfig.Roll — a
// keyed hash, not a shared rand stream — so outcomes are independent of
// iteration order and a fault seed replays byte-identically (the property
// nebula-sim -seed-audit -faults verifies).
//
// The loss process is the real client's retry budget,
// edgenet.DefaultRetryPolicy: each exchange gets its MaxAttempts tries; one
// try is lost with probability Drop+Reset (a dropped message and a
// mid-transfer reset are equally fatal to one attempt), and every try costs
// the link delay plus, before retry k, the backoff BaseDelay·2^(k−1).
type FaultModel struct {
	Cfg edgenet.FaultConfig

	stats FaultStats
}

// FaultStats tallies simulated link outcomes for one adaptation run.
type FaultStats struct {
	Fetches       int64 // sub-model downloads attempted
	FetchRetries  int64 // extra tries spent on downloads
	FetchFailures int64 // downloads lost after all tries
	Fallbacks     int64 // devices that served their cached sub-model instead
	SkippedRounds int64 // devices with no cache that sat the round out
	Pushes        int64 // update uploads attempted
	PushRetries   int64 // extra tries spent on uploads
	PushFailures  int64 // uploads lost after all tries (round proceeds)
}

// faultOutcome is one FaultStats tally under its
// nebula_fed_fault_events_total label.
type faultOutcome struct {
	event string
	n     int64
}

// outcomes lists the tallies the metrics mirror exports.
func (s FaultStats) outcomes() [8]faultOutcome {
	return [8]faultOutcome{
		{"fetch", s.Fetches}, {"fetch_retry", s.FetchRetries}, {"fetch_failure", s.FetchFailures},
		{"fallback", s.Fallbacks}, {"skip", s.SkippedRounds},
		{"push", s.Pushes}, {"push_retry", s.PushRetries}, {"push_failure", s.PushFailures},
	}
}

// NewFaultModel wraps a fault config.
func NewFaultModel(cfg edgenet.FaultConfig) *FaultModel {
	return &FaultModel{Cfg: cfg}
}

// Operation keys for Roll; distinct constants keep fetch and push fault
// streams independent.
const (
	opFetch int64 = 1
	opPush  int64 = 2
)

// try simulates one exchange: success/failure plus the simulated seconds the
// link faults cost (delays on every try, backoff before each retry).
func (f *FaultModel) try(op int64, round, dev int) (ok bool, extra float64, tries int) {
	p := min(f.Cfg.Drop+f.Cfg.Reset, 1) // the per-try loss probability
	policy := edgenet.DefaultRetryPolicy()
	attempts, backoff := policy.MaxAttempts, policy.BaseDelay.Seconds()
	for a := 0; a < attempts; a++ {
		extra += f.Cfg.Delay.Seconds()
		if f.Cfg.Roll(op, int64(round), int64(dev), int64(a)) >= p {
			return true, extra, a + 1
		}
		if a < attempts-1 {
			extra += float64(backoff * float64(int64(1)<<a))
		}
	}
	return false, extra, attempts
}

// Fetch simulates a sub-model download for device dev in the given round.
// A nil model is a clean network.
func (f *FaultModel) Fetch(round, dev int) (ok bool, extraTime float64) {
	if f == nil || !f.Cfg.Enabled() {
		return true, 0
	}
	ok, extraTime, tries := f.try(opFetch, round, dev)
	f.stats.Fetches++
	f.stats.FetchRetries += int64(tries - 1)
	if !ok {
		f.stats.FetchFailures++
	}
	return ok, extraTime
}

// Push simulates an update upload for device dev in the given round.
func (f *FaultModel) Push(round, dev int) (ok bool, extraTime float64) {
	if f == nil || !f.Cfg.Enabled() {
		return true, 0
	}
	ok, extraTime, tries := f.try(opPush, round, dev)
	f.stats.Pushes++
	f.stats.PushRetries += int64(tries - 1)
	if !ok {
		f.stats.PushFailures++
	}
	return ok, extraTime
}

// NoteFallback records a device serving its cached sub-model after a failed
// fetch.
func (f *FaultModel) NoteFallback() {
	if f != nil {
		f.stats.Fallbacks++
	}
}

// NoteSkip records a device sitting a round out (failed fetch, no cache).
func (f *FaultModel) NoteSkip() {
	if f != nil {
		f.stats.SkippedRounds++
	}
}

// Stats returns the accumulated outcome tallies.
func (f *FaultModel) Stats() FaultStats {
	if f == nil {
		return FaultStats{}
	}
	return f.stats
}

// Counters renders the tallies for the experiment output.
func (s FaultStats) Counters(title string) *metrics.Counters {
	c := metrics.NewCounters(title)
	c.Set("fetches", s.Fetches)
	c.Set("fetch retries", s.FetchRetries)
	c.Set("fetch failures", s.FetchFailures)
	c.Set("cached-sub fallbacks", s.Fallbacks)
	c.Set("rounds skipped (no cache)", s.SkippedRounds)
	c.Set("pushes", s.Pushes)
	c.Set("push retries", s.PushRetries)
	c.Set("push failures", s.PushFailures)
	return c
}
