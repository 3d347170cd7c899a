package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/storage"
	"repro/internal/storage/chunk"
)

// smallCkpt is ckpt-stack cut to a few iterations, for tests.
func smallCkpt() *runtimeSpec {
	s := ckptStack
	s.iterations = 6
	return &s
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames())
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEndDefs)
	check("per_layer", b.PerLayer, layerDefs)
}

// storeImage is what an episode left in its SDF directory: every raw
// object's size (chunks, recipes, manifests) and every manifest's chunk
// references.
type storeImage struct {
	sizes  map[string]int
	chunks map[string][]storage.ChunkRef
}

func readImage(t *testing.T, dir string) storeImage {
	t.Helper()
	raw, err := storage.NewSDF(nil, 1, 1e9, dir)
	if err != nil {
		t.Fatal(err)
	}
	names, err := raw.List("")
	if err != nil {
		t.Fatal(err)
	}
	img := storeImage{sizes: map[string]int{}, chunks: map[string][]storage.ChunkRef{}}
	dedup := chunk.New(storage.NewCompressing(raw, storage.CompressionOptions{}), chunk.Options{})
	for _, n := range names {
		obj, err := raw.Get(n)
		if err != nil {
			t.Fatal(err)
		}
		img.sizes[n] = len(obj)
		if cluster.IsManifestName(n) {
			data, err := dedup.Get(n)
			if err != nil {
				t.Fatal(err)
			}
			m, err := cluster.DecodeManifest(data)
			if err != nil {
				t.Fatal(err)
			}
			img.chunks[n] = m.Chunks
		}
	}
	return img
}

func runSmall(t *testing.T, s *runtimeSpec, seed uint64, tr *tracer) (*episode, string) {
	t.Helper()
	dir := t.TempDir()
	ep, err := runEpisode(s, seed, dir, tr)
	if err != nil {
		t.Fatal(err)
	}
	if ep.failed != 0 || len(ep.problems) > 0 {
		t.Fatalf("episode failed %d of %d blocks: %v", ep.failed, ep.attempted, ep.problems)
	}
	return ep, dir
}

// The timing wrappers must be invisible to the program: a traced run
// stores the same objects, byte for byte in size, with the same
// manifest chunk references, as an untraced one.
func TestTracedRunStoresSameObjects(t *testing.T) {
	s := smallCkpt()
	_, plainDir := runSmall(t, s, 7, nil)
	tr := newTracer()
	_, tracedDir := runSmall(t, s, 7, tr)
	plain, traced := readImage(t, plainDir), readImage(t, tracedDir)
	if len(plain.chunks) == 0 {
		t.Fatal("no manifests stored")
	}
	if !reflect.DeepEqual(plain.sizes, traced.sizes) {
		t.Errorf("traced run stored %d objects, untraced %d, or sizes differ", len(traced.sizes), len(plain.sizes))
	}
	for n, refs := range plain.chunks {
		if len(refs) == 0 {
			t.Errorf("manifest %s records no chunks", n)
		}
		if !reflect.DeepEqual(refs, traced.chunks[n]) {
			t.Errorf("manifest %s: chunk references differ under tracing", n)
		}
	}
	tot := tr.snapshot()
	for _, name := range []string{"chunk.put", "compress.put", "sdf.put", "chunk.get", "sdf.get",
		"cluster.manifest_put", "core.write", "storage.broker_acquire", "cluster.root_arrival"} {
		if tot[name].calls == 0 {
			t.Errorf("no %s spans recorded", name)
		}
	}
}

// Same seed, same stored bytes and the same chunk and codec counts;
// another seed, other input bytes.
func TestSeedDeterminism(t *testing.T) {
	s := smallCkpt()
	a, _ := runSmall(t, s, 11, nil)
	b, _ := runSmall(t, s, 11, nil)
	if a.acc.ObjectBytes != b.acc.ObjectBytes {
		t.Errorf("stored bytes %d vs %d for one seed", a.acc.ObjectBytes, b.acc.ObjectBytes)
	}
	if a.acc.ChunksStored != b.acc.ChunksStored || a.acc.ChunksDeduped != b.acc.ChunksDeduped {
		t.Errorf("chunks stored/deduped %d/%d vs %d/%d for one seed",
			a.acc.ChunksStored, a.acc.ChunksDeduped, b.acc.ChunksStored, b.acc.ChunksDeduped)
	}
	if !reflect.DeepEqual(a.acc.PerCodec, b.acc.PerCodec) {
		t.Errorf("codec counts %v vs %v for one seed", a.acc.PerCodec, b.acc.PerCodec)
	}
	if a.acc.ChunksDeduped == 0 {
		t.Error("no chunk deduplicated: the per-iteration change window is not working")
	}

	in1, in2 := genInputs(s, 11), genInputs(s, 12)
	same := true
	for i := range in1.base {
		same = same && bytes.Equal(in1.base[i], in2.base[i])
	}
	if same {
		t.Error("seeds 11 and 12 generated identical inputs")
	}
	if !reflect.DeepEqual(genInputs(s, 11), in1) {
		t.Error("seed 11 generated different inputs twice")
	}
}

// Each wrapper answers the optional interfaces exactly as the wrapped
// layer does.
func TestWrapperForwardsOptionalInterfaces(t *testing.T) {
	tr := newTracer()
	mem := storage.NewMemory(nil, 1, 1e9)
	comp := storage.NewCompressing(mem, storage.CompressionOptions{Codec: "gorilla"})
	dedup := chunk.New(comp, chunk.Options{})
	wc, wd, wm := tr.wrap("compress", comp, false), tr.wrap("chunk", dedup, true), tr.wrap("memory", mem, false)

	payload := make([]byte, 64<<10)
	for i := range payload {
		payload[i] = byte(i / 512)
	}
	if err := wc.PutVec("job-root000-it000003", [][]byte{payload[:100], payload[100:]}); err != nil {
		t.Fatal(err)
	}
	if got, want := mustCodec(wc, "job-root000-it000003"), mustCodec(comp, "job-root000-it000003"); got != want {
		t.Errorf("ObjectCodec through wrapper %v, direct %v", got, want)
	}
	if _, ok := wm.ObjectCodec("x"); ok {
		t.Error("memory wrapper claims codec info the memory store does not have")
	}
	if err := wd.Put("job-root001-it000004", payload); err != nil {
		t.Fatal(err)
	}
	ci, ok := wd.ObjectChunks("job-root001-it000004")
	direct, _ := dedup.ObjectChunks("job-root001-it000004")
	if !ok || !reflect.DeepEqual(ci, direct) {
		t.Errorf("ObjectChunks through wrapper %v/%v, direct %v", ci, ok, direct)
	}
	if err := wd.Retain("job-root001-it000004"); err != nil {
		t.Errorf("Retain through wrapper: %v", err)
	}
	if err := wd.Release("job-root001-it000004"); err != nil {
		t.Errorf("Release through wrapper: %v", err)
	}
	if err := wm.Release("job-root001-it000004"); err == nil {
		t.Error("memory wrapper accepted Release; the memory store keeps no references")
	}
	if err := wm.Delete("job-root000-it000003"); err != nil {
		t.Errorf("Delete through memory wrapper: %v", err)
	}
	if _, err := mem.Get("job-root000-it000003"); err == nil {
		t.Error("object survived Delete through the wrapper")
	}
	if it := tr.snapshot()["compress.put"]; it.calls != 1 || it.bytes != int64(len(payload)) {
		t.Errorf("compress.put total %+v, want 1 call of %d bytes", it, len(payload))
	}
}

func mustCodec(ci storage.ObjectCodecInfoer, name string) storage.CodecInfo {
	info, _ := ci.ObjectCodec(name)
	return info
}

func TestIterOf(t *testing.T) {
	for name, want := range map[string]int{
		"ckpt-root001-it000042":          42,
		"ckpt-root001-it000042-manifest": 42,
		"chunk/abcdef":                   -1,
	} {
		if got := iterOf(name); got != want {
			t.Errorf("iterOf(%q) = %d, want %d", name, got, want)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max = %v, want 4", got)
	}
}
