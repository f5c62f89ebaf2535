package sailor

// systemLRU is a small least-recently-used cache of profiled Systems.
// Callers hold s.mu; the LRU itself is not locked.
type systemLRU struct {
	cap   int
	order []string // most recently used first
	items map[string]*System
}

func newSystemLRU(cap int) *systemLRU {
	return &systemLRU{cap: cap, items: map[string]*System{}}
}

func (l *systemLRU) len() int { return len(l.items) }

func (l *systemLRU) touch(key string) {
	for i, k := range l.order {
		if k == key {
			copy(l.order[1:i+1], l.order[:i])
			l.order[0] = key
			return
		}
	}
	l.order = append([]string{key}, l.order...)
}

func (l *systemLRU) get(key string) (*System, bool) {
	sys, ok := l.items[key]
	if ok {
		l.touch(key)
	}
	return sys, ok
}

func (l *systemLRU) put(key string, sys *System) {
	l.items[key] = sys
	l.touch(key)
	for len(l.items) > l.cap {
		last := l.order[len(l.order)-1]
		l.order = l.order[:len(l.order)-1]
		delete(l.items, last)
	}
}
