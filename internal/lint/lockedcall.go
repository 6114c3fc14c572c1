package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// LockedCall flags calls that can block — or burn unbounded CPU — while a
// sync.Mutex/RWMutex acquired in the enclosing function is still held. One
// slow network peer (or one large quantization) inside a critical section
// serializes every other goroutine behind the lock; in edgenet that is every
// device of a round stuck behind one fetch, the exact bug PR 2 fixed by hand
// in serveSubModel. This check finds the pattern statically, cross-package:
// the callee is resolved through the program's declaration index and walked
// transitively, so `codec.Send(...)` is flagged because Send's body reaches
// `(*gob.Encoder).Encode`, three hops and two packages away.
//
// Blocking seeds: any method on a net-package type or on a conn-shaped value
// (has Read/Write/SetReadDeadline), gob/json Encode/Decode, net.Dial/Listen,
// time.Sleep, and the repo's own calls that are a critical-section bug by
// their CPU cost alone (cpuHeavySeeds): the wire codec and the quantizer
// under it, and a weight clone of the cloud model. The sanctioned shape is
// serveSubModel's: snapshot under the lock in a small closure, do the slow
// work outside.
type LockedCall struct{}

// Name implements Analyzer.
func (LockedCall) Name() string { return "lockedcall" }

// Doc implements Analyzer.
func (LockedCall) Doc() string {
	return "blocking call (net I/O, gob encode, quantization — resolved transitively) while a sync mutex is held"
}

// DefaultPaths implements Analyzer: the RPC, telemetry, and trace planes,
// where a long critical section serializes the fleet.
func (LockedCall) DefaultPaths() []string {
	return []string{"internal/edgenet", "internal/fed", "internal/obs", "internal/trace"}
}

// Check implements Analyzer.
func (LockedCall) Check(f *File) []Diagnostic {
	c := &lockedCallPass{f: f, memo: map[*types.Func]string{}}
	for _, body := range functionBodies(f.AST) {
		c.checkBody(body)
	}
	return c.out
}

// functionBodies returns every function-like body in the file: declarations
// and literals, each analyzed independently (a lock taken inside an
// immediately-invoked closure is scoped to that closure).
func functionBodies(root *ast.File) []*ast.BlockStmt {
	var out []*ast.BlockStmt
	ast.Inspect(root, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncDecl:
			if v.Body != nil {
				out = append(out, v.Body)
			}
		case *ast.FuncLit:
			out = append(out, v.Body)
		}
		return true
	})
	return out
}

type lockedCallPass struct {
	f    *File
	out  []Diagnostic
	memo map[*types.Func]string // types.Func → blocking-chain description ("" = safe)
}

// checkBody finds lock acquisitions in every statement list of body and
// scans their held regions. Nested function literals are skipped here (they
// get their own checkBody) except when immediately invoked, in which case
// the region scan descends into them.
func (c *lockedCallPass) checkBody(body *ast.BlockStmt) {
	for _, stmts := range statementLists(body) {
		for i, stmt := range stmts {
			lockExpr, rlock, ok := lockAcquire(c.f, stmt)
			if !ok {
				continue
			}
			c.scanRegion(heldRegion(stmts[i+1:], lockExpr, rlock), lockExpr)
		}
	}
}

// statementLists collects every statement list in body without descending
// into nested function literals: block bodies plus switch/select clauses.
func statementLists(body *ast.BlockStmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.BlockStmt:
			out = append(out, v.List)
		case *ast.CaseClause:
			out = append(out, v.Body)
		case *ast.CommClause:
			out = append(out, v.Body)
		}
		return true
	}
	ast.Inspect(body, walk)
	return out
}

// lockAcquire matches `expr.Lock()` / `expr.RLock()` statements where expr
// is typed sync.Mutex or sync.RWMutex, returning the printed receiver.
func lockAcquire(f *File, stmt ast.Stmt) (recv string, rlock, ok bool) {
	es, isExpr := stmt.(*ast.ExprStmt)
	if !isExpr {
		return "", false, false
	}
	call, isCall := es.X.(*ast.CallExpr)
	if !isCall {
		return "", false, false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
		return "", false, false
	}
	if !isSyncLock(f.TypeOf(sel.X)) {
		return "", false, false
	}
	return types.ExprString(sel.X), sel.Sel.Name == "RLock", true
}

func isSyncLock(t types.Type) bool {
	named := namedOf(t)
	if named == nil || named.Obj() == nil || named.Obj().Pkg() == nil {
		return false
	}
	name := named.Obj().Name()
	return named.Obj().Pkg().Path() == "sync" && (name == "Mutex" || name == "RWMutex")
}

// heldRegion returns the statements executed while the lock on recv is held:
// everything up to (but excluding) the first statement containing a matching
// Unlock; a `defer recv.Unlock()` extends the region to the end of the list
// (minus the defer itself). Ending at the first statement that merely
// *contains* an Unlock (e.g. inside an if-branch) deliberately under-
// approximates — fewer false positives on early-unlock paths.
func heldRegion(rest []ast.Stmt, recv string, rlock bool) []ast.Stmt {
	var region []ast.Stmt
	deferred := false
	for _, stmt := range rest {
		if ds, ok := stmt.(*ast.DeferStmt); ok && isUnlockCall(ds.Call, recv, rlock) {
			deferred = true
			continue
		}
		if !deferred && stmtContainsUnlock(stmt, recv, rlock) {
			return region
		}
		region = append(region, stmt)
	}
	return region
}

func isUnlockCall(call *ast.CallExpr, recv string, rlock bool) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	want := "Unlock"
	if rlock {
		want = "RUnlock"
	}
	return sel.Sel.Name == want && types.ExprString(sel.X) == recv
}

func stmtContainsUnlock(stmt ast.Stmt, recv string, rlock bool) bool {
	found := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isUnlockCall(call, recv, rlock) {
			found = true
		}
		return !found
	})
	return found
}

// scanRegion walks the held region for blocking calls. It descends into
// nested blocks and immediately-invoked function literals, but not into
// plain literals (run later), go statements (run elsewhere), or deferred
// calls of this region (run after unlock when the unlock is not deferred —
// and when it is, the defer-ordering guarantees unlock-first registration
// only for the sanctioned lock-then-defer-unlock shape, so skipping is the
// low-noise choice).
func (c *lockedCallPass) scanRegion(stmts []ast.Stmt, lockExpr string) {
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.GoStmt, *ast.DeferStmt:
			return false
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if lit, ok := ast.Unparen(v.Fun).(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, walk) // immediately invoked: runs under the lock
				for _, arg := range v.Args {
					ast.Inspect(arg, walk)
				}
				return false
			}
			if chain := c.blockingChain(c.f, v, 0); chain != "" {
				c.out = append(c.out, Diagnostic{
					Pos:   c.f.Fset.Position(v.Pos()),
					Check: "lockedcall",
					Message: fmt.Sprintf(
						"%s can block (%s) while %s is locked; snapshot state under the lock and do the slow work outside (serveSubModel pattern)",
						types.ExprString(v.Fun), chain, lockExpr),
				})
			}
		}
		return true
	}
	for _, stmt := range stmts {
		ast.Inspect(stmt, walk)
	}
}

// blockingChain classifies a call as blocking, resolving through the
// program's declaration index up to 4 hops deep. Returns a human-readable
// chain ("Send → gob.Encode") or "" when the call is safe/unresolvable.
func (c *lockedCallPass) blockingChain(f *File, call *ast.CallExpr, depth int) string {
	fn := f.CalleeFunc(call)
	if fn == nil {
		return ""
	}
	if why := seedBlocking(fn); why != "" {
		return why
	}
	if depth >= 4 {
		return ""
	}
	if why, ok := c.memo[fn]; ok {
		return why
	}
	c.memo[fn] = "" // in-progress marker: recursion resolves to safe
	declFile, decl := progOf(f).FuncDecl(fn)
	if decl == nil || decl.Body == nil {
		return ""
	}
	chain := ""
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if chain != "" {
			return false
		}
		if _, ok := n.(*ast.GoStmt); ok {
			return false
		}
		inner, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if why := c.blockingChain(declFile, inner, depth+1); why != "" {
			chain = fmt.Sprintf("%s → %s", fn.Name(), why)
		}
		return chain == ""
	})
	c.memo[fn] = chain
	return chain
}

func progOf(f *File) *Program {
	if f.Pkg == nil {
		return nil
	}
	return f.Pkg.Prog
}

// blockingConnMethods are the net.Conn-shaped methods that can block (or, for
// Close on a hung peer, stall) the caller.
var blockingConnMethods = map[string]bool{
	"Read": true, "Write": true, "Close": true, "Accept": true,
	"SetDeadline": true, "SetReadDeadline": true, "SetWriteDeadline": true,
}

// cpuHeavySeeds are the repo's own functions that take time proportional to a
// model: the import-path suffix of their package, their name ("Receiver.Name"
// for a method), and what the diagnostic calls them. Each one held every
// device of a round behind s.mu at some point: the codec in PR 2, Extract
// until the server stopped cloning the model per request.
var cpuHeavySeeds = []struct{ pkgSuffix, fn, why string }{
	{"internal/nn", "Quantize8", "CPU-heavy quantization"},
	{"internal/edgenet", "EncodeVec", "CPU-heavy wire codec"},
	{"internal/edgenet", "DecodeVec", "CPU-heavy wire codec"},
	{"internal/edgenet", "Encoder.Exchange", "CPU-heavy wire codec"},
	{"internal/edgenet", "WirePayload.decodeInto", "CPU-heavy wire codec"},
	{"internal/edgenet", "writeFrame", "chunk frame onto a stream"},
	{"internal/edgenet", "readFrame", "chunk frame off a stream"},
	{"internal/modular", "Model.Extract", "weight clone of the model"},
}

// cpuHeavySeed classifies fn against cpuHeavySeeds.
func cpuHeavySeed(fn *types.Func) string {
	pkg, name := funcPkgPath(fn), fn.Name()
	if named := namedOf(recvType(fn)); named != nil && named.Obj() != nil {
		name = named.Obj().Name() + "." + name
	}
	for _, seed := range cpuHeavySeeds {
		if seed.fn == name && strings.HasSuffix(pkg, seed.pkgSuffix) {
			return fmt.Sprintf("%s.%s (%s)", pkg[strings.LastIndex(pkg, "/")+1:], name, seed.why)
		}
	}
	return ""
}

// seedBlocking is the base classification: calls that block by themselves.
func seedBlocking(fn *types.Func) string {
	if why := cpuHeavySeed(fn); why != "" {
		return why
	}
	name := fn.Name()
	if rt := recvType(fn); rt != nil {
		pkgPath := typePkgPath(rt)
		recvName := ""
		if named := namedOf(rt); named != nil && named.Obj() != nil {
			recvName = named.Obj().Name()
		}
		switch {
		case pkgPath == "net":
			return fmt.Sprintf("net.%s.%s", recvName, name)
		case (pkgPath == "encoding/gob" || pkgPath == "encoding/json") &&
			(name == "Encode" || name == "Decode"):
			return fmt.Sprintf("%s.%s.%s", pkgPath[strings.LastIndex(pkgPath, "/")+1:], recvName, name)
		case blockingConnMethods[name] && isConnShaped(rt):
			return fmt.Sprintf("conn-shaped %s.%s", recvName, name)
		}
		return ""
	}
	switch pkg := funcPkgPath(fn); {
	case pkg == "net" && (strings.HasPrefix(name, "Dial") || strings.HasPrefix(name, "Listen")):
		return "net." + name
	case pkg == "time" && name == "Sleep":
		return "time.Sleep"
	}
	return ""
}

// isConnShaped reports whether t looks like a network connection: its method
// set (or its pointer's) contains Read, Write, and SetReadDeadline. This
// catches interfaces and wrappers that are not declared in package net.
func isConnShaped(t types.Type) bool {
	has := func(t types.Type, name string) bool {
		return types.NewMethodSet(t).Lookup(nil, name) != nil
	}
	check := func(t types.Type) bool {
		return has(t, "Read") && has(t, "Write") && has(t, "SetReadDeadline")
	}
	if check(t) {
		return true
	}
	if _, isPtr := t.(*types.Pointer); !isPtr {
		return check(types.NewPointer(t))
	}
	return false
}
