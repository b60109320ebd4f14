package ult

// Key identifies one slot of thread-local data, mirroring pthread keys.
// Keys are compared by pointer identity: create them with NewKey and share
// the pointer among the threads that use the slot.
type Key struct {
	name string
	// destructor runs when a thread that set this key finishes. Nil means
	// no cleanup.
	destructor func(value any)
}

// NewKey creates a thread-local data key. destructor, if non-nil, runs for
// each thread's value when that thread finishes.
func NewKey(name string, destructor func(value any)) *Key {
	return &Key{name: name, destructor: destructor}
}

// Name reports the key's debug name.
func (k *Key) Name() string { return k.name }

// SetLocal associates value with key for thread t
// (pthread_setspecific). A nil value deletes the association.
func (t *TCB) SetLocal(key *Key, value any) {
	t.assertOwner("TCB.SetLocal")
	if value == nil {
		if _, had := t.locals[key]; had {
			delete(t.locals, key)
			removeKey(&t.localOrder, key)
		}
		return
	}
	if t.locals == nil {
		t.locals = make(map[*Key]any)
	}
	if _, had := t.locals[key]; !had {
		t.localOrder = append(t.localOrder, key)
	}
	t.locals[key] = value
}

// removeKey deletes the first occurrence of key from *list, niling the
// vacated tail slot so the backing array does not pin the key alive.
func removeKey(list *[]*Key, key *Key) {
	s := *list
	for i, k := range s {
		if k == key {
			copy(s[i:], s[i+1:])
			s[len(s)-1] = nil
			*list = s[:len(s)-1]
			return
		}
	}
}

// Local reports the value associated with key for thread t, or nil
// (pthread_getspecific).
func (t *TCB) Local(key *Key) any {
	t.assertOwner("TCB.Local")
	return t.locals[key]
}

// runDestructors invokes key destructors for a finished thread, in key
// insertion order so cleanup is deterministic.
func (t *TCB) runDestructors() {
	for _, k := range t.localOrder {
		if k.destructor != nil {
			k.destructor(t.locals[k])
		}
	}
	t.locals = nil
	t.localOrder = nil
}
