package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestSlowQueueProperties drives the slow-consumer queue through
// thousands of seed-chosen offer/pop/close sequences per policy and
// checks that
//
//   - the queue never holds more than Buffer items;
//   - delivered + dropped + discarded-on-close = offered, once the
//     backlog is drained;
//   - delivery order is a subsequence of offer order;
//   - Block never drops, parks only on a full queue, and admits parked
//     items in order into the slot a Pop frees;
//   - DropOldest keeps the newest offers: the queue is always a run of
//     consecutive offers ending at the latest one;
//   - Sample never displaces a queued item.
//
// A failing seed replays exactly: the test re-runs it and requires the
// same event trace and the same failure.
func TestSlowQueueProperties(t *testing.T) {
	seeds := 2000
	if testing.Short() {
		seeds = 300
	}
	start := time.Now()
	for _, policy := range SlowPolicies() {
		pressured := 0
		for seed := int64(1); seed <= int64(seeds); seed++ {
			trace, full, err := slowQueueRun(policy, seed)
			if full {
				pressured++
			}
			if err == nil {
				continue
			}
			trace2, _, err2 := slowQueueRun(policy, seed)
			if trace2 != trace || fmt.Sprint(err2) != fmt.Sprint(err) {
				t.Fatalf("%s seed %d does not replay: %v vs %v", policy, seed, err, err2)
			}
			t.Fatalf("%s seed %d: %v\ntrace: %s", policy, seed, err, trace)
		}
		if pressured < seeds/2 {
			t.Fatalf("%s: only %d of %d seeds ever offered to a full queue", policy, pressured, seeds)
		}
	}
	t.Logf("%d seeds x %d policies in %v", seeds, len(SlowPolicies()), time.Since(start))
}

// slowQueueRun plays one seeded sequence. Items are the offer ordinals
// 1, 2, ...; a parked item's wake handle is its own ordinal. It returns
// the trace, whether any offer met a full queue, and the first
// property violation.
func slowQueueRun(policy SlowPolicy, seed int64) (string, bool, error) {
	rng := rand.New(rand.NewSource(seed))
	buffer := 1 + rng.Intn(5)
	q := NewSlowQueue[int, int](buffer, policy)
	var (
		trace     strings.Builder
		offered   int
		delivered []int
		discarded int
		parked    []int // wake handles not yet returned, in park order
		full      bool
	)
	fmt.Fprintf(&trace, "buf=%d", buffer)
	pop := func() (bool, error) {
		before := slices.Clone(q.items)
		item, wake, ok := q.Pop()
		if !ok {
			return false, nil
		}
		fmt.Fprintf(&trace, " pop=%d", item)
		if item != before[0] {
			return true, fmt.Errorf("popped %d, queue head was %d", item, before[0])
		}
		if n := len(delivered); n > 0 && item <= delivered[n-1] {
			return true, fmt.Errorf("delivered %d after %d", item, delivered[n-1])
		}
		delivered = append(delivered, item)
		switch {
		case len(parked) > 0:
			if wake != parked[0] || q.items[len(q.items)-1] != wake || len(q.items) != len(before) {
				return true, fmt.Errorf("pop woke %d and queued %v, want parked %d admitted last", wake, q.items, parked[0])
			}
			parked = parked[1:]
		case wake != 0:
			return true, fmt.Errorf("pop woke %d with nothing parked", wake)
		}
		return true, nil
	}
	closeQ := func() error {
		fmt.Fprintf(&trace, " close")
		wakes := q.Close()
		if !slices.Equal(wakes, parked) {
			return fmt.Errorf("close returned %v, parked %v", wakes, parked)
		}
		discarded += len(wakes)
		parked = nil
		return nil
	}

	events := 10 + rng.Intn(70)
	for ev := 0; ev < events; ev++ {
		switch r := rng.Intn(20); {
		case r < 11: // offer; biased past pops so queues fill
			offered++
			item := offered
			before := slices.Clone(q.items)
			dropped := q.Dropped()
			wasFull := len(before) >= buffer
			full = full || (wasFull && !q.Closed())
			fmt.Fprintf(&trace, " offer=%d", item)
			wake := q.Offer(item, func() int { return item })
			switch {
			case q.Closed():
				if wake != 0 || !slices.Equal(q.items, before) {
					return trace.String(), full, fmt.Errorf("offer on a closed queue changed it: %v -> %v", before, q.items)
				}
				discarded++
			case policy == Block && wasFull:
				if wake != item || !slices.Equal(q.items, before) {
					return trace.String(), full, fmt.Errorf("block on a full queue: wake %d, queue %v -> %v", wake, before, q.items)
				}
				parked = append(parked, wake)
			case wake != 0:
				return trace.String(), full, fmt.Errorf("offer of %d parked under %s (full=%v)", item, policy, wasFull)
			case policy == Sample && wasFull:
				if !slices.Equal(q.items, before) {
					return trace.String(), full, fmt.Errorf("sample displaced queued items: %v -> %v", before, q.items)
				}
			case q.items[len(q.items)-1] != item:
				return trace.String(), full, fmt.Errorf("offer of %d not queued last: %v", item, q.items)
			}
			if policy == Block && q.Dropped() != dropped {
				return trace.String(), full, fmt.Errorf("block dropped an item")
			}
		case r < 19:
			if _, err := pop(); err != nil {
				return trace.String(), full, err
			}
		default:
			if err := closeQ(); err != nil {
				return trace.String(), full, err
			}
		}
		if q.Len() > buffer {
			return trace.String(), full, fmt.Errorf("queue holds %d > buffer %d", q.Len(), buffer)
		}
		if policy == DropOldest && !q.Closed() && q.Len() > 0 {
			for i, it := range q.items {
				if it != offered-q.Len()+1+i {
					return trace.String(), full, fmt.Errorf("drop-oldest queue %v is not the newest offers up to %d", q.items, offered)
				}
			}
		}
	}
	if err := closeQ(); err != nil {
		return trace.String(), full, err
	}
	for {
		popped, err := pop()
		if err != nil {
			return trace.String(), full, err
		}
		if !popped {
			break
		}
	}
	if got := len(delivered) + int(q.Dropped()) + discarded; got != offered {
		return trace.String(), full, fmt.Errorf("delivered %d + dropped %d + discarded %d != offered %d",
			len(delivered), q.Dropped(), discarded, offered)
	}
	return trace.String(), full, nil
}
