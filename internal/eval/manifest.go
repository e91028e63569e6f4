package eval

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"assertionbench/internal/astore"
	"assertionbench/internal/bench"
)

// Crash-safe resumable runs. Whenever an artifact store is attached,
// the runner journals every decided design outcome write-behind into a
// run manifest (astore.KindRun blob, keyed by the hash of generator +
// corpus + result-relevant options). A process killed mid-run loses
// nothing it decided: a later run with RunOptions.Resume serves those
// outcomes straight from the manifest and only evaluates the designs
// the first run left undecided — Unknown verdicts, truncation stubs,
// errored outcomes, or designs never reached. Because decided verdicts
// are budget- and schedule-independent (the anytime and oracle-10
// contracts), the manifest key deliberately excludes Workers, budgets,
// Retries and ErrorPolicy: a budgeted 8-worker run's manifest
// resumes correctly under an unbudgeted sequential run, and the result
// is byte-identical to never having been interrupted (dverify
// oracle 11).

// ManifestDropHook, when non-nil, suppresses journaling of the decided
// outcome at the given global corpus index. It exists solely as a
// mutation seam: oracle 11's mutation test installs it to prove that a
// recorder silently skipping entries is caught (the resumed run
// re-verifies designs the manifest should have decided, and the
// oracle counts those verify calls). Never set in production.
var ManifestDropHook func(index int) bool

// manifestKey identifies one run for resume purposes: the generator,
// every design (name + source hash, in corpus order), the global base
// index, and every option that can change an outcome's fields.
func manifestKey(gen string, designs []bench.Design, base int, opt RunOptions) string {
	h := sha256.New()
	fmt.Fprintf(h, "run\x00%s\x00shots=%d seed=%d corr=%v base=%d\x00",
		gen, opt.Shots, opt.Seed, opt.UseCorrector, base)
	f := opt.FPV
	fmt.Fprintf(h, "fpv=%d,%d,%d,%d,%d,%d,%s,%s,%s,%s,%s\x00",
		f.MaxProductStates, f.MaxInputBits, f.MaxInputSamples, f.RandomRuns, f.RandomDepth, f.Seed,
		f.Backend, f.Batch, f.Cone, f.Slices, f.Static)
	for _, d := range designs {
		fmt.Fprintf(h, "%s\x00%x\x00", d.Name, sha256.Sum256([]byte(d.Source)))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// decided reports whether an outcome is final: every verdict decided,
// nothing truncated, nothing errored. Only decided outcomes enter the
// manifest — everything else must re-verify on resume.
func decided(o DesignOutcome) bool {
	if o.Truncated || o.Errored {
		return false
	}
	for _, v := range o.Verdicts {
		if v == VerdictUnknown {
			return false
		}
	}
	return true
}

// manifestFile is the KindRun blob payload: the decided outcomes in
// corpus order, JSON-encoded. The store's container already checksums
// the bytes; a payload that fails to decode is treated as absent (the
// run simply starts from nothing), keeping manifest corruption a
// performance event, never a correctness one.
type manifestFile struct {
	Entries []DesignOutcome `json:"entries"`
}

// manifestRecorder journals decided outcomes write-behind. Every record
// rewrites the whole blob through astore's atomic temp+rename — the
// corpus is ~100 designs, so rewriting is noise — which means a reader
// (a resumed process included) always sees a complete, checksummed
// snapshot of some prefix of the run, never a torn one. The store Put
// happens under the recorder lock so snapshots reach the store in
// monotonic order; a failed Put is ignored (the next record, or the
// resumed run, simply redoes the work). A nil recorder is a no-op, so
// the store-less path pays nothing.
type manifestRecorder struct {
	store *astore.Store
	key   string

	mu      sync.Mutex
	entries map[int]DesignOutcome
}

func newManifestRecorder(store *astore.Store, key string) *manifestRecorder {
	return &manifestRecorder{store: store, key: key, entries: map[int]DesignOutcome{}}
}

// resume loads the decided outcomes a previous run journaled under the
// same key, seeding the recorder so this run's snapshots keep them. A
// missing or undecodable manifest resumes from nothing.
func (r *manifestRecorder) resume() map[int]DesignOutcome {
	blob, ok := r.store.Get(astore.KindRun, r.key)
	if !ok {
		return nil
	}
	var mf manifestFile
	if json.Unmarshal(blob, &mf) != nil {
		return nil
	}
	out := make(map[int]DesignOutcome, len(mf.Entries))
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, o := range mf.Entries {
		if decided(o) {
			out[o.Index] = o
			r.entries[o.Index] = o
		}
	}
	return out
}

// record journals one outcome, if it is decided.
func (r *manifestRecorder) record(o DesignOutcome) {
	if r == nil || !decided(o) {
		return
	}
	if ManifestDropHook != nil && ManifestDropHook(o.Index) {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.entries[o.Index] = o
	mf := manifestFile{Entries: make([]DesignOutcome, 0, len(r.entries))}
	idxs := make([]int, 0, len(r.entries))
	for i := range r.entries {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		mf.Entries = append(mf.Entries, r.entries[i])
	}
	blob, err := json.Marshal(mf)
	if err != nil {
		return
	}
	_ = r.store.Put(astore.KindRun, r.key, blob)
}
