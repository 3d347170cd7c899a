package storage

import (
	"errors"
	"sync"
	"time"
)

// ErrStreamClosed is returned by Subscription.Recv after the stream is
// closed (or the subscription cancelled) and the queued backlog has
// been drained. Callers should test with errors.Is.
var ErrStreamClosed = errors.New("storage: stream closed")

// ErrSlowConsumer is returned by Subscription.Recv after a Block-policy
// subscriber held a publisher past its BlockTimeout: the stream detaches
// the subscriber rather than stall the write path forever, and the
// subscriber learns why on its next receive (after draining whatever
// was already queued). Callers should test with errors.Is.
var ErrSlowConsumer = errors.New("storage: subscriber too slow, detached")

// StreamMsg is one published frame: its name, a stream-wide sequence
// number, and the payload.
// Data is shared read-only among all subscribers — receivers must not
// modify it.
type StreamMsg struct {
	// Name is the object name, e.g. "job-root000-it000042".
	Name string
	// Seq is the stream-wide publish sequence number (starting at 1);
	// gaps in the sequence a subscriber observes are messages its
	// policy dropped.
	Seq uint64
	// Data is the payload as the publisher saw it — decoded bytes, not
	// the framed/chunked form a store holds.
	Data []byte
}

// DefaultStreamBuffer is the per-subscriber queue capacity when
// SubOptions.Buffer is unset. It bounds a subscriber's staleness: under
// DropOldest a consumer is never more than Buffer messages behind the
// publisher.
const DefaultStreamBuffer = 8

// DefaultBlockTimeout is the publisher's patience with a Block-policy
// subscriber when SubOptions.BlockTimeout is unset.
const DefaultBlockTimeout = time.Second

// SubOptions configure one subscription.
type SubOptions struct {
	// Buffer is the bounded queue capacity in messages (default
	// DefaultStreamBuffer).
	Buffer int
	// Policy is what publishers do when the queue is full (default
	// DropOldest).
	Policy SlowPolicy
	// BlockTimeout bounds how long a Block-policy publisher waits for
	// queue space before detaching this subscriber (default
	// DefaultBlockTimeout). Ignored by the other policies.
	BlockTimeout time.Duration
}

func (o SubOptions) withDefaults() SubOptions {
	if o.Buffer <= 0 {
		o.Buffer = DefaultStreamBuffer
	}
	if o.Policy == "" {
		o.Policy = DropOldest
	}
	if o.BlockTimeout <= 0 {
		o.BlockTimeout = DefaultBlockTimeout
	}
	return o
}

// Stream is a fan-out hub from publishers (the tree roots, through
// cluster.NewStreamingHook) to in-situ subscribers. Each subscriber owns a bounded
// FIFO queue; when it falls behind, its SlowPolicy — not the other
// subscribers' — decides what gives. Messages carry stream-wide
// sequence numbers, and every subscriber receives them in sequence
// order even with several concurrent publishers, so a gap means a drop.
// All methods are safe for concurrent use.
type Stream struct {
	mu     sync.Mutex
	subs   map[*Subscription]struct{}
	seq    uint64
	closed bool
}

// NewStream returns an empty hub.
func NewStream() *Stream {
	return &Stream{subs: map[*Subscription]struct{}{}}
}

// Subscribe attaches a new subscriber. On a closed stream the
// subscription is returned already closed (Recv fails fast with
// ErrStreamClosed).
func (s *Stream) Subscribe(opts SubOptions) *Subscription {
	opts = opts.withDefaults()
	sub := &Subscription{
		stream:   s,
		timeout:  opts.BlockTimeout,
		q:        NewSlowQueue[StreamMsg, chan struct{}](opts.Buffer, opts.Policy),
		notEmpty: make(chan struct{}, 1),
	}
	s.mu.Lock()
	if s.closed {
		sub.q.Close()
	} else {
		s.subs[sub] = struct{}{}
	}
	s.mu.Unlock()
	return sub
}

// HasSubscribers reports whether anyone is listening — publishers use
// it to skip payload copies when nobody would see them.
func (s *Stream) HasSubscribers() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.subs) > 0
}

// Publish hands one payload to every current subscriber. The stream
// takes ownership of data: it is shared read-only among subscribers,
// so the caller must not reuse or recycle the buffer afterwards (pass
// a copy when the source buffer is pooled). The message is numbered
// and offered to every subscriber in one critical section, so each
// subscriber sees sequence order even with concurrent publishers.
// Publish blocks only for Block-policy subscribers with full queues,
// and each of those at most its own BlockTimeout, however many other
// publishers wait on the same subscriber — after which the laggard is
// detached with ErrSlowConsumer and the publisher moves on. Publishing
// on a closed stream is a no-op.
func (s *Stream) Publish(name string, data []byte) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.seq++
	msg := StreamMsg{Name: name, Seq: s.seq, Data: data}
	type blocked struct {
		sub      *Subscription
		admitted chan struct{}
	}
	var waits []blocked
	for sub := range s.subs {
		if admitted := sub.offer(msg); admitted != nil {
			waits = append(waits, blocked{sub, admitted})
		}
	}
	s.mu.Unlock()
	for _, w := range waits {
		w.sub.await(w.admitted)
	}
}

// Close shuts the hub down: every subscriber drains its backlog and
// then sees ErrStreamClosed; later Publish calls are dropped. Close is
// idempotent.
func (s *Stream) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	subs := s.subs
	s.subs = map[*Subscription]struct{}{}
	s.mu.Unlock()
	for sub := range subs {
		sub.close(nil)
	}
}

// detach removes a subscription from the fan-out set (it stops
// receiving new messages; queued ones remain readable).
func (s *Stream) detach(sub *Subscription) {
	s.mu.Lock()
	delete(s.subs, sub)
	s.mu.Unlock()
}

// Subscription is one subscriber's bounded FIFO view of a Stream: a
// SlowQueue whose parked Block publishers wait on channels, detaching
// the subscriber after BlockTimeout. Recv is single-consumer; the
// counters and Cancel are safe from any goroutine.
type Subscription struct {
	stream  *Stream
	timeout time.Duration

	mu       sync.Mutex
	q        *SlowQueue[StreamMsg, chan struct{}]
	failed   error         // terminal error after the backlog drains
	notEmpty chan struct{} // 1-buffered wakeup for Recv
}

// signal performs a non-blocking send on a 1-buffered wakeup channel.
func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// offer hands one message to the queue without blocking. A parked
// Block publisher awaits the returned channel, closed once its message
// is admitted or discarded. The stream holds its lock across offers.
func (c *Subscription) offer(msg StreamMsg) (admitted chan struct{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	signal(c.notEmpty)
	return c.q.Offer(msg, func() chan struct{} { return make(chan struct{}) })
}

// await is a Block-policy publisher's backpressure: it waits for the
// consumer to admit its message, up to the subscriber's timeout — then
// detaches the laggard rather than hold the write path hostage.
func (c *Subscription) await(admitted chan struct{}) {
	timer := time.NewTimer(c.timeout)
	defer timer.Stop()
	select {
	case <-admitted:
	case <-timer.C:
		c.close(ErrSlowConsumer)
	}
}

// Recv returns the next message, blocking until one arrives or the
// subscription reaches a terminal state. The queued backlog is always
// drained first; then Recv reports ErrStreamClosed (stream closed or
// subscription cancelled) or ErrSlowConsumer (detached by a Block
// timeout). Recv must not be called concurrently with itself.
func (c *Subscription) Recv() (StreamMsg, error) {
	for {
		msg, ok, err := c.TryRecv()
		if ok || err != nil {
			return msg, err
		}
		<-c.notEmpty
	}
}

// TryRecv is Recv without blocking: ok=false means the queue is empty
// right now (err is then nil on a live subscription, terminal
// otherwise).
func (c *Subscription) TryRecv() (msg StreamMsg, ok bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	msg, admitted, ok := c.q.Pop()
	if admitted != nil {
		close(admitted) // its message took the freed slot
	}
	if ok {
		return msg, true, nil
	}
	if c.q.Closed() {
		if err = c.failed; err == nil {
			err = ErrStreamClosed
		}
	}
	return msg, false, err
}

// Cancel detaches the subscription. Pending messages remain readable;
// after the drain Recv returns ErrStreamClosed. Safe to call more than
// once and concurrently with Recv.
func (c *Subscription) Cancel() { c.close(nil) }

// Dropped returns how many messages this subscription's policy has
// discarded so far (evicted under DropOldest, refused under Sample).
func (c *Subscription) Dropped() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.q.Dropped()
}

// Pending returns the current queue depth.
func (c *Subscription) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.q.Len()
}

// close marks the subscription terminal with cause (nil = plain close),
// discards the parked messages and wakes both sides. First cause wins.
func (c *Subscription) close(cause error) {
	c.stream.detach(c)
	c.mu.Lock()
	if !c.q.Closed() {
		c.failed = cause
	}
	for _, admitted := range c.q.Close() {
		close(admitted)
	}
	c.mu.Unlock()
	signal(c.notEmpty)
}
