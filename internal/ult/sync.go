package ult

import "chant/internal/check"

// Mutex is a mutual-exclusion lock among threads of one scheduler
// (the "Lock (e.g., mutex)" capability of the paper's Figure 2). Waiters
// queue FIFO and ownership is handed directly to the oldest waiter on
// unlock, so the lock is fair and starvation-free under cooperative
// scheduling.
type Mutex struct {
	s       *Sched
	owner   *TCB
	waiters []*TCB
}

// NewMutex creates a mutex for threads of s.
func NewMutex(s *Sched) *Mutex { return &Mutex{s: s} }

// Lock acquires the mutex, blocking the calling thread until available.
// Locking a mutex the caller already holds panics (it would self-deadlock).
func (m *Mutex) Lock() {
	t := m.s.mustCurrent("Mutex.Lock")
	if m.owner == t {
		panic("ult: recursive Mutex.Lock would deadlock")
	}
	if m.owner == nil {
		m.owner = t
		return
	}
	m.waiters = append(m.waiters, t)
	for m.owner != t {
		t.SetOnCancel(func() {
			removeTCB(&m.waiters, t)
			// If ownership was already handed to us, pass it on.
			if m.owner == t {
				m.handoff()
			}
		})
		m.s.Block()
		t.SetOnCancel(nil)
	}
}

// TryLock acquires the mutex if it is free, reporting success, and never
// blocks.
func (m *Mutex) TryLock() bool {
	t := m.s.mustCurrent("Mutex.TryLock")
	if m.owner == nil {
		m.owner = t
		return true
	}
	return false
}

// Unlock releases the mutex, handing it to the oldest waiter if any.
// Unlocking a mutex the caller does not hold panics.
func (m *Mutex) Unlock() {
	t := m.s.mustCurrent("Mutex.Unlock")
	if m.owner != t {
		panic("ult: Mutex.Unlock by non-owner")
	}
	m.handoff()
}

// handoff transfers ownership to the oldest waiter, or frees the mutex.
func (m *Mutex) handoff() {
	if len(m.waiters) == 0 {
		m.owner = nil
		return
	}
	next := m.waiters[0]
	m.waiters = m.waiters[1:]
	m.owner = next
	m.s.Unblock(next)
}

// Locked reports whether the mutex is currently held.
func (m *Mutex) Locked() bool { return m.owner != nil }

// Cond is a condition variable (the "Wait (e.g., condition variable)"
// capability of Figure 2) tied to a Mutex.
type Cond struct {
	m       *Mutex
	waiters []*TCB
}

// NewCond creates a condition variable using m for its monitor.
func NewCond(m *Mutex) *Cond { return &Cond{m: m} }

// Wait atomically releases the mutex and blocks until Signal or Broadcast
// wakes the thread, then reacquires the mutex before returning. As with
// POSIX condition variables, callers must re-check their predicate in a
// loop.
func (c *Cond) Wait() {
	t := c.m.s.mustCurrent("Cond.Wait")
	if c.m.owner != t {
		panic("ult: Cond.Wait without holding the mutex")
	}
	c.waiters = append(c.waiters, t)
	c.m.Unlock()
	t.SetOnCancel(func() { removeTCB(&c.waiters, t) })
	c.m.s.Block()
	t.SetOnCancel(nil)
	c.m.Lock()
}

// Signal wakes the oldest waiter, if any.
func (c *Cond) Signal() {
	if check.Enabled {
		c.m.s.owner.Assert("Cond.Signal")
	}
	if len(c.waiters) == 0 {
		return
	}
	t := c.waiters[0]
	c.waiters = c.waiters[1:]
	c.m.s.Unblock(t)
}

// Broadcast wakes every waiter.
func (c *Cond) Broadcast() {
	if check.Enabled {
		c.m.s.owner.Assert("Cond.Broadcast")
	}
	for _, t := range c.waiters {
		c.m.s.Unblock(t)
	}
	c.waiters = nil
}
