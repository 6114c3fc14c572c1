package edgenet

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
)

// FaultConfig describes a lossy edge-cloud link. One seed replays the same
// fault sequence, so experiments over a faulty network stay byte-identical
// run to run (nebula-sim -seed-audit composes with -faults).
//
// The same config drives two injectors: FaultyConn perturbs a real byte
// stream (TCP or net.Pipe) for the testbed, and fed.FaultModel replays the
// equivalent loss process inside the simulation loop.
type FaultConfig struct {
	// Seed selects the fault sequence; 0 means "derive from the run seed"
	// (the consumers resolve it).
	Seed int64
	// Drop is the probability a written message is silently swallowed —
	// the peer never sees it and times out.
	Drop float64
	// Delay is added before every link operation (plus up to 100% jitter).
	Delay time.Duration
	// Reset is the probability a write delivers only a prefix and then
	// tears the connection down mid-message.
	Reset float64
	// BandwidthBps caps throughput in bytes/second (0 = unlimited).
	BandwidthBps int64
}

// Enabled reports whether any fault dimension is active.
func (c FaultConfig) Enabled() bool {
	return c.Drop > 0 || c.Delay > 0 || c.Reset > 0 || c.BandwidthBps > 0
}

// String renders the config in ParseFaultSpec's format.
func (c FaultConfig) String() string {
	var parts []string
	if c.Drop > 0 {
		parts = append(parts, fmt.Sprintf("drop=%g", c.Drop))
	}
	if c.Delay > 0 {
		parts = append(parts, fmt.Sprintf("delay=%s", c.Delay))
	}
	if c.Reset > 0 {
		parts = append(parts, fmt.Sprintf("reset=%g", c.Reset))
	}
	if c.BandwidthBps > 0 {
		parts = append(parts, fmt.Sprintf("bw=%d", c.BandwidthBps))
	}
	if c.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", c.Seed))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// ParseFaultSpec parses a comma-separated fault spec, e.g.
// "drop=0.25,delay=20ms,reset=0.05,seed=7" or "drop=0.2,bw=256k".
// Unknown keys are errors so typos do not silently run a clean network.
func ParseFaultSpec(spec string) (FaultConfig, error) {
	var c FaultConfig
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "none" {
		return c, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return c, fmt.Errorf("fault spec: %q is not key=value", kv)
		}
		var err error
		switch key {
		case "drop":
			c.Drop, err = parseProb(val)
		case "reset":
			c.Reset, err = parseProb(val)
		case "delay":
			c.Delay, err = time.ParseDuration(val)
			if err == nil && c.Delay < 0 {
				err = fmt.Errorf("negative delay %s", val)
			}
		case "bw":
			c.BandwidthBps, err = parseBytesPerSec(val)
		case "seed":
			c.Seed, err = strconv.ParseInt(val, 10, 64)
		default:
			return c, fmt.Errorf("fault spec: unknown key %q (want drop|delay|reset|bw|seed)", key)
		}
		if err != nil {
			return c, fmt.Errorf("fault spec %s=%s: %w", key, val, err)
		}
	}
	return c, nil
}

func parseProb(s string) (float64, error) {
	p, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if !(p >= 0 && p <= 1) { // NaN fails both comparisons
		return 0, fmt.Errorf("probability %g outside [0,1]", p)
	}
	return p, nil
}

func parseBytesPerSec(s string) (int64, error) {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "k"):
		mult, s = 1<<10, strings.TrimSuffix(s, "k")
	case strings.HasSuffix(s, "m"):
		mult, s = 1<<20, strings.TrimSuffix(s, "m")
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, err
	}
	if n <= 0 {
		return 0, fmt.Errorf("bandwidth must be positive")
	}
	if n > math.MaxInt64/mult {
		return 0, fmt.Errorf("bandwidth overflows int64 bytes/s")
	}
	return n * mult, nil
}

// Roll derives a deterministic uniform [0,1) sample from the config seed and
// an event key. Unlike a shared rand stream, the result depends only on the
// key — never on goroutine scheduling or iteration order — which is what
// keeps seeded fault replay byte-identical across runs (the property
// -seed-audit checks). fed.FaultModel keys rolls by (op, round, device,
// attempt).
func (c FaultConfig) Roll(key ...int64) float64 {
	h := splitmix64(uint64(c.Seed) ^ 0x6e6562756c61) // "nebula"
	for _, k := range key {
		h = splitmix64(h ^ uint64(k))
	}
	return float64(h>>11) / (1 << 53)
}

// splitmix64 is the SplitMix64 finalizer: a bijective avalanche mix.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// FaultEvents counts what an injector actually did.
type FaultEvents struct {
	Drops  int64 // writes swallowed whole
	Resets int64 // connections torn down mid-message
	Delays int64 // operations that slept (delay or bandwidth cap)
}

// ErrInjectedReset is returned by a FaultyConn write that the injector chose
// to reset mid-message; the underlying connection is closed so the peer sees
// a broken stream too.
var ErrInjectedReset = fmt.Errorf("edgenet: injected connection reset")

// FaultyConn wraps a net.Conn (TCP or net.Pipe) and perturbs its write path
// with seeded faults: whole-message drops, per-operation delay, mid-message
// resets, and a bandwidth cap. Reads pass through untouched — in a
// request/response protocol, corrupting one direction already exercises both
// sides' recovery (the peer observes hangs and broken frames).
//
// The event sequence is deterministic for a given config seed; wrap each
// reconnect with a distinct seed (e.g. seed+connIndex) or retries replay the
// identical fault and can never succeed.
type FaultyConn struct {
	net.Conn
	cfg FaultConfig

	mu     sync.Mutex
	rng    *rand.Rand
	events FaultEvents
}

// NewFaultyConn wraps conn with the fault injector.
func NewFaultyConn(conn net.Conn, cfg FaultConfig) *FaultyConn {
	return &FaultyConn{Conn: conn, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Events returns a snapshot of the injected-fault tallies.
func (f *FaultyConn) Events() FaultEvents {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.events
}

// Write applies delay, bandwidth, drop, and reset faults before delegating.
func (f *FaultyConn) Write(p []byte) (int, error) {
	f.mu.Lock()
	sleep := time.Duration(0)
	if f.cfg.Delay > 0 {
		sleep += f.cfg.Delay + time.Duration(f.rng.Int63n(int64(f.cfg.Delay)+1))
	}
	if f.cfg.BandwidthBps > 0 {
		sleep += time.Duration(float64(len(p)) / float64(f.cfg.BandwidthBps) * float64(time.Second))
	}
	roll := f.rng.Float64()
	var action int // 0 = deliver, 1 = drop, 2 = reset
	switch {
	case roll < f.cfg.Reset:
		action = 2
		f.events.Resets++
	case roll < f.cfg.Reset+f.cfg.Drop:
		action = 1
		f.events.Drops++
	}
	if sleep > 0 {
		f.events.Delays++
	}
	f.mu.Unlock()

	if sleep > 0 {
		time.Sleep(sleep)
	}
	switch action {
	case 1:
		// Black hole: the caller believes the message left, the peer never
		// sees it and must time out. This is how a lost datagram manifests
		// to a stream protocol.
		return len(p), nil
	case 2:
		// Mid-message reset: deliver a prefix, then kill the stream so both
		// sides observe a broken frame.
		if n := len(p) / 2; n > 0 {
			if _, err := f.Conn.Write(p[:n]); err != nil {
				return 0, err
			}
		}
		_ = f.Conn.Close()
		return len(p) / 2, ErrInjectedReset
	}
	return f.Conn.Write(p)
}
