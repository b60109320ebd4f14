//go:build chantdebug

package check

import (
	"bytes"
	"runtime"
	"strconv"
	"sync"
)

// Enabled reports whether invariant checking is compiled in.
const Enabled = true

// goid parses the current goroutine's id out of its stack header. It is
// slow and officially discouraged, which is exactly why it lives behind the
// chantdebug build tag: debug builds trade speed for catching the
// wrong-goroutine bugs the Go runtime gives no other handle on.
func goid() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	// The header reads "goroutine 123 [running]:".
	s := bytes.TrimPrefix(buf[:n], []byte("goroutine "))
	if i := bytes.IndexByte(s, ' '); i > 0 {
		if id, err := strconv.ParseInt(string(s[:i]), 10, 64); err == nil {
			return id
		}
	}
	Failf("check: cannot parse goroutine id from %q", buf[:n])
	return 0
}

// Owner is a scheduling-domain ownership token. A cooperative domain (an
// ult scheduler and its threads) spans many goroutines but only one may run
// at a time; the token records which. The running side releases the token
// before every coroutine switch and the resuming side acquires it after, so
// the switch's own synchronization orders every access. Assert then catches calls
// entering the domain from any goroutine that was never handed the token.
//
// The zero Owner is valid and unowned. The mutex exists so that the misuse
// being detected — a foreign goroutine racing the domain — reads consistent
// state and fails cleanly under -race rather than as a data race.
type Owner struct {
	mu   sync.Mutex
	gid  int64 // owning goroutine, 0 while unowned
	name string
}

// Acquire takes the token for the current goroutine, panicking if another
// goroutine holds it (two sides of a switch both believing they run).
func (o *Owner) Acquire(name string) {
	g := goid()
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.gid != 0 && o.gid != g {
		Failf("check: %s acquiring ownership on goroutine %d, but goroutine %d (%s) still holds it", name, g, o.gid, o.name)
	}
	o.gid, o.name = g, name
}

// Release gives the token up before a switch, panicking if the caller is
// not the owner.
func (o *Owner) Release() {
	g := goid()
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.gid != 0 && o.gid != g {
		Failf("check: goroutine %d releasing ownership held by goroutine %d (%s)", g, o.gid, o.name)
	}
	o.gid, o.name = 0, ""
}

// Assert panics unless the current goroutine holds the token or the token
// is unowned (the domain is not running — setup calls before Run are
// legitimate).
func (o *Owner) Assert(op string) {
	g := goid()
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.gid != 0 && o.gid != g {
		Failf("check: %s called from goroutine %d outside the scheduling domain owned by goroutine %d (%s)", op, g, o.gid, o.name)
	}
}
