package storage_test

import (
	"fmt"

	"repro/internal/storage"
)

// Example_subscribe attaches a bounded subscriber to a stream hub and
// receives each published frame live — the consumer side of the
// in-situ pipeline (see docs/STREAMING.md).
func Example_subscribe() {
	s := storage.NewStream()
	sub := s.Subscribe(storage.SubOptions{Buffer: 4, Policy: storage.DropOldest})

	for it := 0; it < 3; it++ {
		s.Publish(fmt.Sprintf("stream-it%06d", it), []byte{byte(it)})
	}
	s.Close()

	for {
		msg, err := sub.Recv()
		if err != nil {
			return // ErrStreamClosed after the backlog drains
		}
		fmt.Printf("seq %d: %s (%d bytes)\n", msg.Seq, msg.Name, len(msg.Data))
	}
	// Output:
	// seq 1: stream-it000000 (1 bytes)
	// seq 2: stream-it000001 (1 bytes)
	// seq 3: stream-it000002 (1 bytes)
}
