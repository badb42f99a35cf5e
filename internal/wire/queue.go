package wire

import "sync"

// pushQueue decouples a connection's read loop from a consumer that may
// drain slowly: pushes never block (or silently drop) on a full fixed
// buffer the way the old 32-slot assignment channel did — they append to
// an accounted in-memory queue that a pump goroutine delivers to a plain
// channel. Depth and high-water marks are exported through
// Client.Metrics so overload is visible, and a queue that grows past max
// fires onOverflow exactly once: wire clients close the connection there,
// so the server's DetachWorker path recovers any held task instead of
// the frame rotting in a buffer nobody reads.
type pushQueue[T any] struct {
	mu         sync.Mutex
	buf        []T
	closed     bool
	overflowed bool
	highWater  int
	pushed     int64

	wake chan struct{} // 1-buffered pump doorbell
	dead chan struct{} // closed on close(): aborts a blocked delivery
	out  chan T

	max        int
	onOverflow func()
}

func newPushQueue[T any](max int, onOverflow func()) *pushQueue[T] {
	q := &pushQueue[T]{
		wake:       make(chan struct{}, 1),
		dead:       make(chan struct{}),
		out:        make(chan T),
		max:        max,
		onOverflow: onOverflow,
	}
	go q.pump()
	return q
}

// push enqueues one item; it never blocks. Items pushed after close are
// discarded (the connection is gone; the server re-pushes on reconnect).
func (q *pushQueue[T]) push(v T) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.buf = append(q.buf, v)
	if len(q.buf) > q.highWater {
		q.highWater = len(q.buf)
	}
	q.pushed++
	over := q.max > 0 && len(q.buf) > q.max && !q.overflowed
	if over {
		q.overflowed = true
	}
	q.mu.Unlock()
	select {
	case q.wake <- struct{}{}:
	default:
	}
	if over && q.onOverflow != nil {
		q.onOverflow()
	}
}

// close stops the queue: the pump delivers nothing further and the out
// channel closes, exactly like a closed channel would — undelivered items
// are dropped, which is correct because they belonged to a dead
// connection. The first call returns once the pump has exited.
// Idempotent.
func (q *pushQueue[T]) close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.closed = true
	q.mu.Unlock()
	close(q.dead)
	select {
	case q.wake <- struct{}{}:
	default:
	}
	// Drain until the pump exits and closes out: a delivery it was about
	// to offer (or already parked on) lands here and is dropped, since it
	// belonged to this dead connection. A one-shot steal is not enough:
	// a pump between its dead check and its send parks only after the
	// steal has looked, and then a consumer arriving after close() could
	// still receive the item. The pump sends at most one more item once
	// dead is closed, so this returns promptly.
	for range q.out {
	}
}

func (q *pushQueue[T]) pump() {
	defer close(q.out)
	for {
		v, ok, closed := q.pop()
		if closed {
			return
		}
		if !ok {
			select {
			case <-q.wake:
			case <-q.dead:
				return
			}
			continue
		}
		// Check dead with priority before offering the item: when close()
		// landed while the item was being popped, the send and the abort
		// below are both ready and select picks randomly — without this
		// check the pump could hand a consumer one more item after
		// close(), violating the "delivers nothing further" contract.
		select {
		case <-q.dead:
			return
		default:
		}
		select {
		case q.out <- v:
		case <-q.dead:
			return
		}
	}
}

// pop removes the head item; ok reports an item was available, closed
// reports the queue is closed (delivery stops immediately — remaining
// items belonged to a dead connection).
func (q *pushQueue[T]) pop() (v T, ok, closed bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return v, false, true
	}
	if len(q.buf) == 0 {
		return v, false, false
	}
	v = q.buf[0]
	q.buf = q.buf[1:]
	if len(q.buf) == 0 {
		q.buf = nil // release the drained backing array
	}
	return v, true, false
}

// depthStats snapshots the queue accounting for Client.Metrics.
func (q *pushQueue[T]) depthStats() (depth, highWater int, pushed int64, overflowed bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.buf), q.highWater, q.pushed, q.overflowed
}
