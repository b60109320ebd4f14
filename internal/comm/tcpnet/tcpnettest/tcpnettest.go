// Package tcpnettest boots in-process tcpnet machines for tests. It imports
// no tcpnet code, so tcpnet's own tests use it as well as its clients'.
package tcpnettest

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"syscall"
	"testing"
	"time"
)

// leaderHeadStart is how long Boot gives the leading node to fail its
// rendezvous listen before the others dial.
const leaderHeadStart = 5 * time.Millisecond

// attempts bounds how many fresh ports Boot tries.
const attempts = 5

// Node is a booted node: whatever boot returns, closed when the test ends.
type Node interface{ Close() error }

// Boot starts procs nodes joined at one rendezvous on 127.0.0.1, node i
// with boot(rendezvous, i) (node 0 leads), and closes them when the test
// ends. The rendezvous port is found by binding and releasing an ephemeral
// port, so another process can take it before the leader listens on it
// again. The leader's listen then fails with EADDRINUSE, and only then does
// the boot start over on a fresh port. The others dial once the leader has
// had leaderHeadStart to fail, so none of them registers with the port's
// new owner.
func Boot[N Node](t testing.TB, procs int, boot func(rendezvous string, i int) (N, error)) []N {
	t.Helper()
	for attempt := 1; ; attempt++ {
		nodes, err := tryBoot(freeRendezvous(t), procs, boot)
		if err == nil {
			t.Cleanup(func() {
				for _, n := range nodes {
					n.Close()
				}
			})
			return nodes
		}
		if !errors.Is(err, syscall.EADDRINUSE) || attempt == attempts {
			t.Fatal(err)
		}
	}
}

// freeRendezvous picks an ephemeral rendezvous address by binding and
// immediately releasing a port.
func freeRendezvous(t testing.TB) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// tryBoot boots procs nodes at rendezvous, closing them all on any error.
func tryBoot[N Node](rendezvous string, procs int, boot func(string, int) (N, error)) ([]N, error) {
	nodes := make([]N, procs)
	errs := make([]error, procs)
	ok := make([]bool, procs)
	start := func(i int) {
		var err error
		if nodes[i], err = boot(rendezvous, i); err != nil {
			errs[i] = fmt.Errorf("node %d bootstrap: %w", i, err)
		} else {
			ok[i] = true
		}
	}
	lead := make(chan struct{})
	//chant:allow-nondet booting real TCP nodes runs them concurrently
	go func() {
		start(0)
		close(lead)
	}()
	//chant:allow-nondet the leader's head start is real time
	select {
	case <-lead: // back before anyone joined: it failed, or it is alone
		if errs[0] != nil {
			return nil, errs[0]
		}
	case <-time.After(leaderHeadStart): //chant:allow-nondet the leader's head start is real time
	}
	var wg sync.WaitGroup
	for i := 1; i < procs; i++ {
		wg.Add(1)
		//chant:allow-nondet booting real TCP nodes runs them concurrently
		go func() {
			defer wg.Done()
			start(i)
		}()
	}
	wg.Wait()
	<-lead
	err := errors.Join(errs...)
	if err != nil {
		for i, n := range nodes {
			if ok[i] {
				n.Close()
			}
		}
	}
	return nodes, err
}
