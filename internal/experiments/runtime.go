package experiments

import (
	"fmt"
	"sync"

	"repro/internal/cluster"
	"repro/internal/meta"
)

// clusterMeta is the per-node configuration of the runtime-face legs:
// one dedicated core, a bufferBytes shared-memory segment, and one
// variable "theta" of n float64 values per client. The template is
// fixed, so a parse failure is a programming error.
func clusterMeta(name string, n, bufferBytes int) *meta.Config {
	cfg, err := meta.ParseString(fmt.Sprintf(`<simulation name="%s">
  <architecture><dedicated cores="1"/><buffer size="%d"/></architecture>
  <data>
    <parameter name="n" value="%d"/>
    <layout name="row" type="float64" dimensions="n"/>
    <variable name="theta" layout="row"/>
  </data>
</simulation>`, name, bufferBytes, n))
	if err != nil {
		panic(err)
	}
	return cfg
}

// produce drives every client of c through iters iterations, one
// goroutine per client: each writes payload(node, source, it) as
// "theta" and ends the iteration. It returns the first write error, or
// nil once the last iteration is stored. The caller still shuts c down.
func produce(c *cluster.Cluster, iters int, payload func(node, source, it int) []byte) error {
	var wg sync.WaitGroup
	var once sync.Once
	var first error
	for n := 0; n < c.Nodes(); n++ {
		for s := 0; s < c.ClientsPerNode(); s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cl := c.Client(n, s)
				for it := 0; it < iters; it++ {
					if err := cl.Write("theta", it, payload(n, s, it)); err != nil {
						once.Do(func() { first = fmt.Errorf("node %d src %d it %d: %w", n, s, it, err) })
						return
					}
					cl.EndIteration(it)
				}
			}()
		}
	}
	wg.Wait()
	if first != nil {
		return first
	}
	c.WaitIteration(iters - 1)
	return nil
}

// fixedPayload returns a payload function that writes data for every
// (node, source, iteration).
func fixedPayload(data []byte) func(node, source, it int) []byte {
	return func(int, int, int) []byte { return data }
}

// rampBlock is the 512-byte block (bytes 0, 1, 2, …) every client of
// the F1 and R1 runtime legs writes each iteration.
func rampBlock() []byte {
	data := make([]byte, 64*8)
	for i := range data {
		data[i] = byte(i)
	}
	return data
}
