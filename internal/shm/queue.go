package shm

import "sync"

// Queue is the bounded message queue between simulation cores and the
// dedicated cores (§III.B: "a shared message queue is used for the
// simulation processes to send events to the dedicated cores"). It is a
// multi-producer, multi-consumer FIFO with a fixed capacity, mirroring a
// POSIX message queue.
type Queue[T any] struct {
	mu       sync.Mutex
	notFull  *sync.Cond
	notEmpty *sync.Cond
	buf      []T
	head     int
	count    int
	closed   bool
}

// NewQueue creates a queue holding at most capacity messages.
func NewQueue[T any](capacity int) *Queue[T] {
	if capacity <= 0 {
		panic("shm: queue capacity must be positive")
	}
	q := &Queue[T]{buf: make([]T, capacity)}
	q.notFull = sync.NewCond(&q.mu)
	q.notEmpty = sync.NewCond(&q.mu)
	return q
}

// Len returns the number of queued messages.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.count
}

// Send enqueues v, blocking while the queue is full. It reports false if
// the queue was closed.
func (q *Queue[T]) Send(v T) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.count == len(q.buf) && !q.closed {
		q.notFull.Wait()
	}
	if q.closed {
		return false
	}
	q.buf[(q.head+q.count)%len(q.buf)] = v
	q.count++
	q.notEmpty.Signal()
	return true
}

// TrySend enqueues v without blocking; it reports false when the queue is
// full or closed.
func (q *Queue[T]) TrySend(v T) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || q.count == len(q.buf) {
		return false
	}
	q.buf[(q.head+q.count)%len(q.buf)] = v
	q.count++
	q.notEmpty.Signal()
	return true
}

// Recv dequeues the oldest message, blocking while the queue is empty.
// It reports false when the queue is closed and drained.
func (q *Queue[T]) Recv() (T, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.count == 0 && !q.closed {
		q.notEmpty.Wait()
	}
	if q.count == 0 {
		var zero T
		return zero, false
	}
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // release references for the GC
	q.head = (q.head + 1) % len(q.buf)
	q.count--
	q.notFull.Signal()
	return v, true
}

// TryRecv dequeues without blocking; ok is false when nothing is queued.
func (q *Queue[T]) TryRecv() (v T, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.count == 0 {
		return v, false
	}
	v = q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) % len(q.buf)
	q.count--
	q.notFull.Signal()
	return v, true
}

// Close marks the queue closed: senders fail, receivers drain what is
// left and then observe closure.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.notFull.Broadcast()
	q.notEmpty.Broadcast()
}
