package edgenet

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"sync"
	"time"

	"repro/internal/modular"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/tensor"
)

// Server is the cloud side of the testbed: it owns the modularized model,
// serves personalized sub-models, buffers uploaded updates, and aggregates
// them module-wise every aggregateEvery updates.
type Server struct {
	Model *modular.Model
	// Logf, when set, receives one line per protocol event.
	Logf func(format string, args ...any)
	// ReadTimeout bounds how long a connection may sit idle between
	// requests before the server reaps it; without it a hung client blocks
	// Close's wg.Wait forever. 0 disables the deadline.
	ReadTimeout time.Duration
	// WriteTimeout bounds one response send (a client that stops reading
	// otherwise wedges the handler). 0 disables the deadline. For v2 chunk
	// streams the deadline re-arms before every chunk, so it bounds one
	// write of the buffered stream, not the whole payload — one slow link
	// cannot pin a handler for payload-size-proportional time.
	WriteTimeout time.Duration
	// Spans, when set, records handler phase spans (decode, dequantize,
	// lock wait, aggregate, encode) into the trace context carried by each
	// request. Nil = tracing off; requests with TraceID 0 record nothing.
	Spans *span.Recorder

	// aggregateEvery triggers module-wise aggregation after this many
	// uploads (the testbed's communication-round granularity); NewServer
	// sets it.
	aggregateEvery int

	mu sync.Mutex
	// pending is the batch of accepted updates aggregation has not folded in.
	pending []queuedUpdate
	conns   map[net.Conn]struct{}
	// devices is everything the server remembers about a device, by
	// DeviceID; wireVer numbers the references in it.
	devices map[int]deviceRecord
	wireVer uint64
	// maxVecLen is Model's full backbone length, the longest upload
	// recvPayload accepts a header for. Shapes never change after NewServer.
	maxVecLen int

	// metrics is the per-server obs registry — the single source of truth
	// for the protocol counters. StatsSnapshot and KindStats render views of
	// it (see obs.go). Counter updates are atomic and need no s.mu.
	metrics *serverMetrics

	ln        net.Listener
	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// NewServer wraps a trained modularized model.
func NewServer(model *modular.Model, aggregateEvery int) *Server {
	if aggregateEvery < 1 {
		aggregateEvery = 1
	}
	return &Server{
		Model:          model,
		aggregateEvery: aggregateEvery,
		ReadTimeout:    5 * time.Minute,
		WriteTimeout:   time.Minute,
		closed:         make(chan struct{}),
		conns:          map[net.Conn]struct{}{},
		devices:        map[int]deviceRecord{},
		maxVecLen:      fullBackboneLen(model),
		metrics:        newServerMetrics(),
	}
}

// queuedUpdate is one accepted push waiting in the batch: its device and
// Seq, which order the fold, and the update, whose sub-model is a view of vec,
// a borrowed array that goes back to the arena once aggregation has consumed
// the batch.
type queuedUpdate struct {
	device int
	seq    int64
	update *modular.Update
	vec    *tensor.Scratch
}

// deviceRecord is the server's per-device state.
type deviceRecord struct {
	// seq is the highest applied PushUpdate Seq (at-most-once application).
	seq int64
	// ref is the delta-coding reference: the bit-exact reconstruction of the
	// last sub-model served to the device.
	ref *WireRef
}

// readRef returns the device's reference when a payload for a sub-model of
// structure mapping may be coded against version ver of it (WireRef.Base),
// with a hold for the caller, who releases it through dropRef; nil when there
// is none — code or ask for a full payload. Handlers read a reference outside
// s.mu, and a retry on a new connection can race the request it repeats, so a
// reference its record has replaced may still be read. The caller holds s.mu.
func (s *Server) readRef(device int, ver uint64, mapping [][]int) *WireRef {
	r := s.devices[device].ref
	if r == nil || r.Version != ver || r.Base(mapping) == nil {
		return nil
	}
	r.holds++
	return r
}

// dropRef releases one hold on r and meters its array if that sent it back
// to the arena. The caller holds s.mu.
func (s *Server) dropRef(r *WireRef) {
	if n := r.Release(); n > 0 {
		s.metrics.refBytes.Add(-float64(n))
		s.metrics.refsRecycled.Inc()
	}
}

// reqSpan opens a server-side span in the distributed-trace context carried
// by req (zero Active when tracing is off or the request is untraced). The
// parent is a span ID minted by the peer — same trace, different recorder.
func (s *Server) reqSpan(req *Request, parent span.SpanID, kind string) span.Active {
	a := s.Spans.Start(span.TraceID(req.TraceID), parent, kind)
	a.SetDevice(req.DeviceID)
	a.SetAttempt(req.Attempt)
	return a
}

// Listen starts accepting connections on addr (e.g. ":7070" or "127.0.0.1:0")
// and returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.Serve(ln)
	return ln.Addr().String(), nil
}

// Serve accepts connections from an already-bound listener. Exported so
// tests can inject listeners that fail transiently or wrap accepted
// connections in fault injectors. The server takes ownership of ln.
func (s *Server) Serve(ln net.Listener) {
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
}

// acceptLoop accepts until the listener closes. Transient accept errors
// (EMFILE, ECONNABORTED, injected faults, ...) must not kill the loop — a
// server that goes permanently deaf after one bad accept strands the whole
// fleet — so anything that is not net.ErrClosed is retried with capped
// exponential backoff.
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	var delay time.Duration
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			if delay == 0 {
				delay = 5 * time.Millisecond
			} else if delay *= 2; delay > time.Second {
				delay = time.Second
			}
			s.logf("accept error (retrying in %v): %v", delay, err)
			s.metrics.acceptRetries.Inc()
			select {
			case <-time.After(delay):
			case <-s.closed:
				return
			}
			continue
		}
		delay = 0
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				_ = conn.Close()
			}()
			s.ServeConn(conn)
		}()
	}
}

// Close stops the listener, tears down in-flight connections, and waits for
// their handlers. Read deadlines plus explicit conn close guarantee the wait
// terminates even if a client hangs mid-request. Closing a closed server is
// a no-op.
func (s *Server) Close() {
	s.closeOnce.Do(s.shutdown)
}

func (s *Server) shutdown() {
	close(s.closed)
	if s.ln != nil {
		if err := s.ln.Close(); err != nil {
			s.logf("listener close: %v", err)
		}
	}
	// Snapshot the connection set under the lock and close outside it: Close
	// on a hung peer can stall, and the connection handlers need s.mu to
	// deregister themselves (closing under the lock is a lock-order inversion
	// one slow socket away from deadlocking shutdown).
	s.mu.Lock()
	conns := make([]net.Conn, 0, len(s.conns))
	//nolint:maporder -- teardown set: close order is irrelevant and net.Conn keys have no order to sort by
	for conn := range s.conns {
		conns = append(conns, conn)
	}
	s.mu.Unlock()
	for _, conn := range conns {
		_ = conn.Close()
	}
	s.wg.Wait()
}

// connDeadliner is the optional deadline surface of the stream ServeConn is
// given; net.TCPConn and net.Pipe both provide it.
type connDeadliner interface {
	SetReadDeadline(time.Time) error
	SetWriteDeadline(time.Time) error
}

// ServeConn handles one client connection until EOF. Exported so tests can
// drive the server over net.Pipe without TCP.
func (s *Server) ServeConn(rw interface {
	Read([]byte) (int, error)
	Write([]byte) (int, error)
}) {
	codec := NewCodec(rw)
	// Traffic is part of the paper's communication-cost metric; one defer
	// covers every exit path (a recv error, clean EOF included, or a send
	// error) so no bytes are ever dropped from the count.
	defer func() {
		in, out := codec.Traffic()
		s.metrics.bytesIn.Add(float64(in))
		s.metrics.bytesOut.Add(float64(out))
	}()
	dl, _ := rw.(connDeadliner)
	// Re-armed before every frame of a request or a response: a deadline
	// bounds one stalled frame or one write, not the whole payload.
	armRead := func() {
		if dl != nil && s.ReadTimeout > 0 {
			_ = dl.SetReadDeadline(time.Now().Add(s.ReadTimeout)) //nolint:rawclock -- socket deadlines are genuinely wall-clock; never enters simulated costs
		}
	}
	armWrite := func() {
		if dl != nil && s.WriteTimeout > 0 {
			_ = dl.SetWriteDeadline(time.Now().Add(s.WriteTimeout)) //nolint:rawclock -- socket deadlines are genuinely wall-clock; never enters simulated costs
		}
	}
	// prevIn/prevOut checkpoint the codec's traffic so each request and
	// response wire size can be observed individually.
	var prevIn, prevOut int64
	// The downlink payloads this connection sends are built here, each in the
	// arrays of the last: one is written out before the next request is read.
	var enc Encoder
	for {
		armRead()
		var req Request
		if err := codec.Recv(&req); err != nil {
			s.noteConnError("recv", err)
			return
		}
		sw := obs.StartTimer()
		// A kind this server does not speak is answered with an error and
		// observed under kind="unknown" (MsgKind 0), like any other request.
		kind := req.Kind
		if _, known := s.metrics.rpcSeconds[kind]; !known {
			kind = 0
		}
		// The handler span parents under the client's attempt span (wire
		// context), so one trace shows both sides of the RPC; decode and the
		// phase spans below it are its children.
		hs := s.reqSpan(&req, span.SpanID(req.SpanID), "srv."+kindName(req.Kind))
		// An upload streams its chunk frames right behind the envelope;
		// they are part of this request, so they arrive before the request
		// size is observed and before the handler runs. srv.decode covers
		// them all; no span is recorded per frame, on either side.
		ds := s.reqSpan(&req, hs.ID(), "srv.decode")
		var inPay *WirePayload
		var err error
		if req.Payload != nil {
			inPay, err = codec.recvPayload(req.Payload, s.maxVecLen, armRead)
		}
		in, _ := codec.Traffic()
		ds.SetBytes(in - prevIn)
		ds.SetErr(err)
		ds.End()
		if err != nil {
			hs.SetErr(err)
			hs.End()
			s.noteConnError("recv", err)
			return
		}
		s.metrics.reqBytes[kind].Observe(float64(in - prevIn))
		prevIn = in
		if req.Attempt > 0 {
			s.metrics.retries.Inc()
		}
		resp, outPay := s.handle(&req, inPay, &enc, hs.ID())
		// Echo the trace so the client can confirm context propagation
		// (interop tests); untraced peers never see the field (gob drops zeros).
		resp.TraceID = req.TraceID
		hs.End()
		var outChunks []WireChunk
		if outPay != nil {
			outChunks = outPay.Chunks
		}
		if err := codec.sendMessage(resp, outChunks, armWrite); err != nil {
			s.noteConnError("send", err)
			return
		}
		_, out := codec.Traffic()
		s.metrics.rspBytes[kind].Observe(float64(out - prevOut))
		prevOut = out
		s.metrics.rpcSeconds[kind].ObserveSince(sw)
	}
}

// noteConnError classifies a connection teardown into the Stats counters:
// deadline hits are Timeouts, clean EOF/closure is silent, anything else
// (mid-stream reset, corrupt frame) is a Reset.
func (s *Server) noteConnError(op string, err error) {
	var nerr net.Error
	switch {
	case errors.As(err, &nerr) && nerr.Timeout():
		s.metrics.timeouts.Inc()
		s.logf("%s timeout: %v", op, err)
	case errors.Is(err, io.EOF), errors.Is(err, net.ErrClosed), errors.Is(err, io.ErrClosedPipe):
		// Clean disconnect.
	default:
		s.metrics.resets.Inc()
		s.logf("%s error: %v", op, err)
	}
}

// handle dispatches one request. A non-nil second return is the chunk
// stream ServeConn writes after the response envelope, built in enc. ps is
// the handler span phase spans parent under (0 when the request is untraced).
func (s *Server) handle(req *Request, pay *WirePayload, enc *Encoder, ps span.SpanID) (*Response, *WirePayload) {
	switch req.Kind {
	case KindHello:
		if req.Proto != ProtoVersion {
			return &Response{Error: fmt.Sprintf("protocol version %d not spoken here; this server speaks version %d", req.Proto, ProtoVersion)}, nil
		}
		s.mu.Lock()
		vec := s.Model.Selector.Vector()
		s.mu.Unlock()
		s.logf("device %d hello; selector %d floats", req.DeviceID, len(vec))
		return &Response{OK: true, Selector: vec, Proto: ProtoVersion}, nil

	case KindGetSubModel:
		resp, out, err := s.serveSubModel(req, enc, ps)
		if err != nil {
			return &Response{Error: err.Error()}, nil
		}
		return resp, out

	case KindPushUpdate:
		resp, err := s.acceptUpdate(req, pay, ps)
		if err != nil {
			return &Response{Error: err.Error()}, nil
		}
		return resp, nil

	case KindStats:
		return &Response{OK: true, Stats: s.StatsSnapshot()}, nil

	default:
		return &Response{Error: fmt.Sprintf("unknown message kind %d", req.Kind)}, nil
	}
}

func (s *Server) serveSubModel(req *Request, enc *Encoder, ps span.SpanID) (resp *Response, out *WirePayload, err error) {
	defer func() {
		if r := recover(); r != nil {
			resp, out, err = nil, nil, fmt.Errorf("malformed request: %v", r)
		}
	}()
	if err := s.checkImportance(req.Importance); err != nil {
		return nil, nil, err
	}
	// Hold the model lock only for derivation, the parameter snapshot — one
	// flatten of the cloud's own tensors for the selection, straight into the
	// wire vector — and the read of the device's reference with the version
	// stamp; quantization runs outside the lock instead of serializing every
	// device behind one fetch. The flat vector is quantized and dropped before
	// this handler returns, so its array is borrowed.
	sc := tensor.GetScratch(s.maxVecLen)
	defer tensor.PutScratch(sc)
	var active [][]int
	var old *WireRef
	var ver uint64
	vec := sc.Data[:0]
	// The derive span covers the lock wait plus the locked derivation —
	// on a contended server it shows devices queueing on s.mu.
	dvs := s.reqSpan(req, ps, "srv.derive")
	func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		active = s.Model.Derive(req.Importance, req.Budget.ToBudget(), false)
		vec = s.Model.AppendBackboneVector(vec, active)
		old = s.readRef(req.DeviceID, req.HaveVer, active)
		s.wireVer++
		ver = s.wireVer
	}()
	dvs.End()
	s.metrics.subModelsServed.Inc()
	if s.Logf != nil {
		modules := 0
		for _, idx := range active {
			modules += len(idx)
		}
		s.Logf("device %d sub-model: %d modules, %d B", req.DeviceID, modules, 4*len(vec))
	}
	es := s.reqSpan(req, ps, "srv.encode")
	out = s.encodeServe(req.DeviceID, active, vec, enc, old, ver)
	es.End()
	return &Response{OK: true, Active: active, Payload: &out.Header}, out, nil
}

// encodeServe builds the downlink payload of version ver for one sub-model
// serve in enc: delta against old — the device's reference, read with a hold
// when the client still holds its version and the mapping is structurally
// unchanged — full when old is nil. It also advances the cache — the new
// reference is the *reconstruction* the client will decode, so both ends stay
// bit-identical.
func (s *Server) encodeServe(device int, active [][]int, vec []float32, enc *Encoder, old *WireRef, ver uint64) *WirePayload {
	// Quantization and reconstruction — one walk over the vector — are CPU
	// work on private data and on a reference held for reading: outside the
	// lock, like the rest of this handler.
	p, next := old.Send(enc, vec, active, ver)
	if p.Header.Delta {
		s.metrics.wireDelta.Inc()
	} else {
		s.metrics.wireFull.Inc()
	}
	s.metrics.wireRatio.Observe(float64(int64(len(vec))*4) / float64(p.WireBytes()))
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dropRef(old)
	// The new reference replaces the record's, which drops its hold.
	rec := s.devices[device]
	s.dropRef(rec.ref)
	rec.ref = next
	s.devices[device] = rec
	s.metrics.refBytes.Add(float64(4 * cap(next.buf.Data)))
	return p
}

func (s *Server) acceptUpdate(req *Request, pay *WirePayload, ps span.SpanID) (resp *Response, err error) {
	defer func() {
		if r := recover(); r != nil {
			resp, err = nil, fmt.Errorf("malformed update: %v", r)
		}
	}()
	if pay == nil {
		return nil, errors.New("push carries no payload")
	}
	// Validated at the door — before anything is counted, queued or recorded
	// — because what aggregation would trip over later, it trips over with
	// every other device's update queued beside it.
	if err := s.checkUpdate(req); err != nil {
		return nil, err
	}
	// Dequantization is CPU-heavy and depends only on the request, so it
	// happens before the lock: one large quantized update must not stall
	// every other device behind s.mu (same shape as serveSubModel, which
	// quantizes the response after releasing the lock).
	var ref *WireRef
	var base []float32
	if pay.Header.Delta {
		s.mu.Lock()
		ref = s.readRef(req.DeviceID, pay.Header.BaseVer, req.Active)
		s.mu.Unlock()
		if ref == nil {
			// The reference this delta was coded against is gone (server
			// restart, mapping drift). Not a failure of the update —
			// ask the client to resend it whole.
			s.metrics.wireFallbacks.Inc()
			s.logf("device %d delta push against unknown base %d; requesting full", req.DeviceID, pay.Header.BaseVer)
			return &Response{Error: "stale wire reference; resend full payload", NeedFull: true}, nil
		}
		base = ref.Vec
		s.metrics.wireDelta.Inc()
	} else {
		s.metrics.wireFull.Inc()
	}
	// The decoded vector lives until aggregation has folded it in, and is
	// read by nothing after: its array is borrowed, and goes back on every
	// path that does not queue it.
	dq := s.reqSpan(req, ps, "srv.dequantize")
	err = pay.check(base)
	var sc *tensor.Scratch
	if err == nil {
		sc = tensor.GetScratch(pay.Header.Len)
		pay.decodeInto(sc.Data, base)
	}
	dq.SetErr(err)
	dq.End()
	queued := false
	defer func() {
		if !queued {
			tensor.PutScratch(sc)
		}
	}()
	// The lock-wait span isolates time queued on s.mu from time doing
	// aggregation work under it — the distinction histograms cannot make.
	lw := s.reqSpan(req, ps, "srv.lock_wait")
	s.mu.Lock()
	lw.End()
	defer s.mu.Unlock()
	s.dropRef(ref) // the decode was this handler's last read of the reference
	if err != nil {
		return nil, err
	}
	// At-most-once application: a retried PushUpdate carries the Seq of the
	// original. If that Seq was already applied, the first attempt succeeded
	// but its response was lost — acknowledge without re-aggregating.
	rec := s.devices[req.DeviceID]
	if req.Seq != 0 && req.Seq <= rec.seq {
		s.metrics.dedups.Inc()
		s.logf("device %d replayed update seq %d (deduped)", req.DeviceID, req.Seq)
		return &Response{OK: true, Deduped: true}, nil
	}
	// The update's sub-model is a view of the decoded vector, which nothing
	// else holds. It is built under the lock because it copies the cloud's
	// module states.
	sub, err := s.Model.SubModelOver(req.Active, sc.Data)
	if err != nil {
		return nil, err
	}
	if req.Seq != 0 {
		rec.seq = req.Seq
		s.devices[req.DeviceID] = rec
	}
	s.pending = append(s.pending, queuedUpdate{req.DeviceID, req.Seq, &modular.Update{Sub: sub, Importance: req.Importance, Weight: req.Weight}, sc})
	queued = true
	s.metrics.updatesReceived.Inc()
	if len(s.pending) >= s.aggregateEvery {
		ag := s.reqSpan(req, ps, "srv.aggregate")
		s.aggregatePending()
		ag.End()
		s.logf("aggregated round %d", int64(s.metrics.aggregations.Value()))
	}
	return &Response{OK: true}, nil
}

// aggregatePending folds the queued updates into the model and returns the
// arrays they were views of. The fold goes by (DeviceID, Seq), not by
// arrival, so the cloud's bits depend on which updates the batch holds and
// not on how their handlers raced for s.mu. The caller holds s.mu.
func (s *Server) aggregatePending() {
	slices.SortStableFunc(s.pending, func(a, b queuedUpdate) int {
		return cmp.Or(cmp.Compare(a.device, b.device), cmp.Compare(a.seq, b.seq))
	})
	updates := make([]*modular.Update, len(s.pending))
	for i, q := range s.pending {
		updates[i] = q.update
	}
	s.Model.AggregateModuleWise(updates)
	for _, q := range s.pending {
		tensor.PutScratch(q.vec)
	}
	s.pending = nil
	s.metrics.aggregations.Inc()
}

// checkUpdate rejects a push whose selection, importance or weight
// aggregation cannot use: AggregateModuleWise indexes Importance[l][i] for
// every module of every layer and divides by the summed weights, so a short
// row panics it and a non-finite value turns cloud parameters NaN; a module
// named twice in a layer would be folded in twice, and one the layer does not
// have matches nothing. It reads architecture only (layer and module counts
// never change), so it needs no lock.
func (s *Server) checkUpdate(req *Request) error {
	if len(req.Active) != len(s.Model.Layers) {
		return fmt.Errorf("selection spans %d layers, the model has %d", len(req.Active), len(s.Model.Layers))
	}
	for l, idx := range req.Active {
		n := s.Model.Layers[l].N()
		if len(idx) > n {
			return fmt.Errorf("selection names %d modules of layer %d, which has %d", len(idx), l, n)
		}
		for j, i := range idx {
			if i < 0 || i >= n {
				return fmt.Errorf("selection names module %d of layer %d, which has %d", i, l, n)
			}
			if slices.Contains(idx[:j], i) {
				return fmt.Errorf("selection names module %d of layer %d twice", i, l)
			}
		}
	}
	if err := s.checkImportance(req.Importance); err != nil {
		return err
	}
	if w := req.Weight; math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
		return fmt.Errorf("update weight %v is not a finite non-negative number", w)
	}
	return nil
}

// checkImportance rejects a peer's importance that Derive and aggregation
// cannot use: one row per layer, one finite entry per module. Both handlers
// that read importance call it; it reads architecture only, so it needs no
// lock.
func (s *Server) checkImportance(imp [][]float64) error {
	if len(imp) != len(s.Model.Layers) {
		return errors.New("importance layer count mismatch")
	}
	for l, row := range imp {
		if n := s.Model.Layers[l].N(); len(row) != n {
			return fmt.Errorf("importance for layer %d has %d entries, the layer has %d modules", l, len(row), n)
		}
		for i, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("importance[%d][%d] is %v", l, i, v)
			}
		}
	}
	return nil
}

// FlushAggregation forces aggregation of buffered updates (end of a round).
func (s *Server) FlushAggregation() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pending) > 0 {
		s.aggregatePending()
	}
}

// StatsSnapshot renders the registry counters in the legacy Stats wire form.
// The registry is authoritative; this view is what KindStats responses carry,
// so the RPC answer and /metrics can never disagree.
func (s *Server) StatsSnapshot() Stats {
	m := s.metrics
	return Stats{
		SubModelsServed: int64(m.subModelsServed.Value()),
		UpdatesReceived: int64(m.updatesReceived.Value()),
		Aggregations:    int64(m.aggregations.Value()),
		BytesIn:         int64(m.bytesIn.Value()),
		BytesOut:        int64(m.bytesOut.Value()),
		Retries:         int64(m.retries.Value()),
		Timeouts:        int64(m.timeouts.Value()),
		Resets:          int64(m.resets.Value()),
		Dedups:          int64(m.dedups.Value()),
		AcceptRetries:   int64(m.acceptRetries.Value()),
		WireFull:        int64(m.wireFull.Value()),
		WireDelta:       int64(m.wireDelta.Value()),
		WireFallbacks:   int64(m.wireFallbacks.Value()),
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}
