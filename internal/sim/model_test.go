package sim

import (
	"errors"
	"fmt"
	"iter"
	"reflect"
	"slices"
	"testing"
)

// The reference kernel below is the dispatch the Kernel had before the
// yielding process ran the event loop: Run is the only loop, every callback
// runs on Run's goroutine, and every process yields back to Run, which
// resumes the next. Its events sit in a plain slice searched for the
// earliest (at, seq), so it shares neither the dispatch nor the heap with
// the Kernel it checks.

type refEvent struct {
	at   Time
	seq  uint64
	fn   func()
	proc *refProc
}

type refKernel struct {
	now      Time
	seq      uint64
	ev       []refEvent
	procs    []*refProc
	deadline Time
	events   uint64
}

type refProc struct {
	k     *refKernel
	name  string
	state procState
	sig   bool
	fn    func(*refProc)
	in    func() (struct{}, bool)
	out   func(struct{}) bool
}

func (k *refKernel) At(t Time, fn func()) {
	if t < k.now {
		panic(fmt.Sprintf("sim: event scheduled in the past: %v < now %v", t, k.now))
	}
	k.seq++
	k.ev = append(k.ev, refEvent{at: t, seq: k.seq, fn: fn})
}

func (k *refKernel) schedule(p *refProc, t Time) {
	k.seq++
	k.ev = append(k.ev, refEvent{at: t, seq: k.seq, proc: p})
}

func (k *refKernel) Spawn(name string, fn func(*refProc)) *refProc {
	p := &refProc{k: k, name: name, fn: fn}
	k.procs = append(k.procs, p)
	k.schedule(p, k.now)
	return p
}

func (k *refKernel) Run(deadline Time) error {
	k.deadline = deadline
	for p := k.next(); p != nil; p = k.next() {
		p.resume()
	}
	if len(k.ev) > 0 {
		return nil
	}
	for _, p := range k.procs {
		if p.state != procDone {
			return fmt.Errorf("%w (process %q is %s at %v)", ErrDeadlock, p.name, p.state, k.now)
		}
	}
	return nil
}

func (k *refKernel) next() *refProc {
	for len(k.ev) > 0 {
		i := 0
		for j, e := range k.ev {
			if e.at < k.ev[i].at || e.at == k.ev[i].at && e.seq < k.ev[i].seq {
				i = j
			}
		}
		e := k.ev[i]
		if k.deadline != 0 && e.at > k.deadline {
			k.now = k.deadline
			return nil
		}
		k.ev = slices.Delete(k.ev, i, i+1)
		k.now = e.at
		k.events++
		if e.fn != nil {
			e.fn()
			continue
		}
		return e.proc
	}
	return nil
}

func (p *refProc) resume() {
	p.state = procRunning
	if p.in == nil {
		p.in, _ = iter.Pull(func(out func(struct{}) bool) {
			p.out = out
			p.fn(p)
			p.state = procDone
		})
	}
	p.in()
}

func (p *refProc) Advance(d Duration) {
	if d <= 0 {
		return
	}
	p.k.schedule(p, p.k.now.Add(d))
	p.state = procReady
	p.out(struct{}{})
}

func (p *refProc) WaitSignal() {
	if p.sig {
		p.sig = false
		return
	}
	p.state = procParked
	p.out(struct{}{})
	p.sig = false
}

func (p *refProc) Signal() {
	switch p.state {
	case procParked:
		p.state = procReady
		p.k.schedule(p, p.k.now)
	case procDone:
	default:
		p.sig = true
	}
}

// modelKernel is what a random program drives; both kernels implement it
// through the adapters below.
type modelKernel interface {
	now() Time
	seqNo() uint64
	events() uint64
	at(t Time, fn func())
	spawn(name string, fn func(modelProc)) modelProc
	run(deadline Time) error
	// chain is how many processes wait inside resume for the running one:
	// always 0 for the reference kernel.
	chain() int
}

type modelProc interface {
	advance(d Duration)
	waitSignal()
	signal()
}

type kernelModel struct{ k *Kernel }

func (m kernelModel) now() Time               { return m.k.now }
func (m kernelModel) seqNo() uint64           { return m.k.seq }
func (m kernelModel) events() uint64          { return m.k.Events }
func (m kernelModel) at(t Time, fn func())    { m.k.At(t, fn) }
func (m kernelModel) run(deadline Time) error { return m.k.Run(deadline) }
func (m kernelModel) spawn(name string, fn func(modelProc)) modelProc {
	return m.k.Spawn(name, func(p *Proc) { fn(p) })
}
func (m kernelModel) chain() int {
	n := 0
	for _, p := range m.k.procs {
		if p.resuming {
			n++
		}
	}
	return n
}

func (p *Proc) advance(d Duration) { p.Advance(d) }
func (p *Proc) waitSignal()        { p.WaitSignal() }
func (p *Proc) signal()            { p.Signal() }

type refModel struct{ k *refKernel }

func (m refModel) now() Time               { return m.k.now }
func (m refModel) seqNo() uint64           { return m.k.seq }
func (m refModel) events() uint64          { return m.k.events }
func (m refModel) at(t Time, fn func())    { m.k.At(t, fn) }
func (m refModel) run(deadline Time) error { return m.k.Run(deadline) }
func (m refModel) chain() int              { return 0 }
func (m refModel) spawn(name string, fn func(modelProc)) modelProc {
	return m.k.Spawn(name, func(p *refProc) { fn(p) })
}

func (p *refProc) advance(d Duration) { p.Advance(d) }
func (p *refProc) waitSignal()        { p.WaitSignal() }
func (p *refProc) signal()            { p.Signal() }

// modelRun is what one kernel made of a random program.
type modelRun struct {
	log    []string // (time, seq, event) in execution order
	now    Time
	events uint64
	errs   []string // one per Run call
	// midChainCuts counts deadline cuts whose last step ran on a process
	// some other process had switched into.
	midChainCuts int
}

// randomProgram runs the program seed describes on k: three to five
// processes and a web of callbacks, all drawing their next move from one
// generator, so that any difference in execution order between two kernels
// shows up as a different log from there on. It runs in up to three windows:
// two deadline cuts, then to the end.
func randomProgram(k modelKernel, seed uint64) modelRun {
	var r modelRun
	rng := NewRNG(seed)
	var procs []modelProc
	live, chainAtLastStep := 0, 0
	logf := func(format string, args ...any) {
		chainAtLastStep = k.chain()
		r.log = append(r.log, fmt.Sprintf("%d/%d ", k.now(), k.seqNo())+fmt.Sprintf(format, args...))
	}
	var spawn func(from string)
	var callback func(depth int)
	callback = func(depth int) {
		switch rng.Intn(4) {
		case 0:
			i := rng.Intn(len(procs))
			logf("cb%d signals p%d", depth, i)
			procs[i].signal()
		case 1:
			if depth < 3 {
				d := Duration(rng.Intn(4))
				logf("cb%d schedules cb%d after %d", depth, depth+1, d)
				k.at(k.now().Add(d), func() { callback(depth + 1) })
				return
			}
			logf("cb%d", depth)
		case 2:
			spawn(fmt.Sprintf("cb%d", depth))
		default:
			logf("cb%d", depth)
		}
	}
	spawn = func(from string) {
		if len(procs) == 5 {
			logf("%s spawns nothing", from)
			return
		}
		id := len(procs)
		steps := 3 + rng.Intn(12)
		logf("%s spawns p%d for %d steps", from, id, steps)
		live++
		procs = append(procs, k.spawn(fmt.Sprint("p", id), func(p modelProc) {
			logf("p%d starts", id)
			for s := 0; s < steps; s++ {
				switch op := rng.Intn(10); op {
				case 0, 1, 2:
					logf("p%d advances 0", id)
					p.advance(0)
				case 3, 4:
					logf("p%d advances 1", id) // the same instant as many others
					p.advance(1)
				case 5:
					d := Duration(2 + rng.Intn(9))
					logf("p%d advances %d", id, d)
					p.advance(d)
				case 6:
					logf("p%d waits", id)
					p.waitSignal()
				case 7:
					i := rng.Intn(len(procs))
					logf("p%d signals p%d", id, i)
					procs[i].signal()
				case 8:
					d := Duration(rng.Intn(5))
					logf("p%d schedules cb0 after %d", id, d)
					k.at(k.now().Add(d), func() { callback(0) })
				case 9:
					spawn(fmt.Sprint("p", id))
				}
				logf("p%d resumes", id)
			}
			logf("p%d ends", id)
			live--
		}))
	}
	for i := 0; i < 3; i++ {
		spawn("main")
	}
	// A sweeper wakes every live process now and then, so each program ends
	// with every process done rather than parked for good.
	var sweep func()
	sweep = func() {
		logf("sweep, %d live", live)
		for _, p := range procs {
			p.signal()
		}
		if live > 0 {
			k.at(k.now().Add(Duration(3+rng.Intn(8))), sweep)
		}
	}
	k.at(Time(1+rng.Intn(5)), sweep)

	cut := Time(1 + rng.Intn(15))
	for _, deadline := range []Time{cut, cut + Time(1+rng.Intn(15)), 0} {
		err := k.run(deadline)
		r.errs = append(r.errs, fmt.Sprint(err))
		if deadline != 0 && chainAtLastStep > 0 {
			r.midChainCuts++
		}
		logf("run(%d) returns", deadline)
	}
	r.now, r.events = k.now(), k.events()
	return r
}

// TestDispatchMatchesReferenceKernel runs random programs on the Kernel and
// on the reference kernel and requires the same (time, seq, event) log, the
// same final clock and event count and the same Run results.
func TestDispatchMatchesReferenceKernel(t *testing.T) {
	const programs = 1500
	midChain := 0
	for seed := uint64(1); seed <= programs; seed++ {
		got := randomProgram(kernelModel{NewKernel()}, seed)
		want := randomProgram(refModel{&refKernel{}}, seed)
		midChain += got.midChainCuts
		got.midChainCuts = 0
		if !reflect.DeepEqual(got, want) {
			for i := range min(len(got.log), len(want.log)) {
				if got.log[i] != want.log[i] {
					t.Fatalf("seed %d: logs part at line %d: kernel %q, reference %q", seed, i, got.log[i], want.log[i])
				}
			}
			t.Fatalf("seed %d: kernel ran %d log lines, now %v, %d events, Run results %q; reference %d, %v, %d, %q",
				seed, len(got.log), got.now, got.events, got.errs, len(want.log), want.now, want.events, want.errs)
		}
	}
	// The deadline must also be met deep in a chain of direct hand-offs,
	// not only on Run's goroutine.
	if midChain < programs/5 {
		t.Fatalf("only %d of %d programs' deadline cuts came with a process switched into by another", midChain, programs)
	}
}

// TestCallbackPanicDeepInChainSurfacesFromRun: Run switches into a, a into
// b, b into c, and a callback that c's Advance runs panics. The value must
// come out of Run unchanged, and none of the three suspended bodies may
// recover it.
func TestCallbackPanicDeepInChainSurfacesFromRun(t *testing.T) {
	boom := errors.New("boom")
	k := NewKernel()
	seen := map[string]any{}
	var a, b *Proc
	chain := -1
	for _, name := range []string{"a", "b", "c"} {
		k.Spawn(name, func(p *Proc) {
			defer func() { seen[name] = recover() }()
			p.Advance(10)
		})
	}
	a, b = k.procs[0], k.procs[1]
	k.At(5, func() {
		if a.resuming && b.resuming {
			chain = 3
		}
		panic(boom)
	})
	func() {
		defer func() {
			if r := recover(); r != boom {
				t.Fatalf("Run's caller recovered %v, want the callback's own panic value", r)
			}
		}()
		k.Run(0)
		t.Fatal("Run returned despite a panicking callback")
	}()
	if chain != 3 {
		t.Fatal("the callback did not run on the third process of a Run → a → b → c chain")
	}
	for name, r := range seen {
		if r != nil {
			t.Fatalf("process %s's body recovered %v", name, r)
		}
	}
}
