package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	accmos "accmos"
	"accmos/internal/server"
)

// repeatJobs drives a fresh accmosd (internal/server) with one client per
// CPU in a closed loop: each client submits its next job only when its
// previous one finished, as engineers or CI waiting on results do. A round
// submits every model once; in each round one job uses a stimulus seed the
// daemon has not built yet and must compile, the rest repeat a built
// program.
type repeatJobs struct {
	*bench
	names   []string
	clients int
	order   *rand.Rand
	known   map[string]uint64   // the seed each model's built program uses
	fresh   map[string][]uint64 // seeds not built yet, in draw order
	round   int
	docs    map[string]string

	srv   *server.Server
	cache *accmos.BuildCache
	hs    *http.Server
	base  string
	http  *http.Client
}

func newRepeatJobs(b *bench, names []string) *repeatJobs {
	w := &repeatJobs{bench: b, names: names, clients: runtime.GOMAXPROCS(0), order: rng(b.seed, "repeat-order"),
		known: map[string]uint64{}, fresh: map[string][]uint64{}}
	r := rng(b.seed, "repeat-seeds")
	for _, m := range names {
		seeds := permuted(r, pipe.Seeds)
		w.known[m], w.fresh[m] = seeds[0], seeds[1:]
	}
	return w
}

func (w *repeatJobs) setup(dir string) error {
	w.docs = map[string]string{}
	for _, m := range w.names {
		data, err := os.ReadFile(modelPath(w.root, m))
		if err != nil {
			return err
		}
		w.docs[m] = string(data)
	}
	w.cache = accmos.NewBuildCache("")
	w.srv = server.New(server.Config{Workers: w.clients, Cache: w.cache})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.hs = &http.Server{Handler: w.srv.Handler()}
	go w.hs.Serve(ln)
	w.base = "http://" + ln.Addr().String()
	w.http = &http.Client{Timeout: 2 * time.Minute}
	for {
		resp, err := w.http.Get(w.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		time.Sleep(time.Millisecond)
	}
	// Warm the daemon: it builds each model's known program once.
	jobs := make(chan string)
	errs := make(chan error, len(w.names))
	for c := 0; c < w.clients; c++ {
		go func() {
			for m := range jobs {
				rec, err := w.job(m, w.known[m], true, nil)
				if err == nil && rec.failed {
					err = fmt.Errorf("warming accmosd: %s job failed", m)
				}
				errs <- err
			}
		}()
	}
	go func() {
		for _, m := range w.names {
			jobs <- m
		}
		close(jobs)
	}()
	for range w.names {
		if err := <-errs; err != nil {
			return err
		}
	}
	return nil
}

func (w *repeatJobs) close() {
	if w.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	w.srv.Drain(ctx)
	w.hs.Shutdown(ctx)
	w.cache.Remove()
	w.srv = nil
}

type repeatJob struct {
	model string
	seed  uint64
	fresh bool
}

// nextRound lists one round's jobs: every model once, one of them fresh.
func (w *repeatJobs) nextRound() []repeatJob {
	names := permuted(w.order, w.names)
	freshModel := w.names[w.round%len(w.names)]
	w.round++
	out := make([]repeatJob, len(names))
	for i, m := range names {
		out[i] = repeatJob{model: m, seed: w.known[m]}
		if m == freshModel && len(w.fresh[m]) > 0 {
			out[i] = repeatJob{model: m, seed: w.fresh[m][0], fresh: true}
			w.fresh[m] = w.fresh[m][1:]
		}
	}
	return out
}

func (w *repeatJobs) runFor(ctx context.Context, d time.Duration, led *ledger) ([]record, error) {
	statsBefore := w.cache.Stats()
	poolBefore := w.srv.Pool().Stats()
	start := time.Now()
	var (
		mu       sync.Mutex
		recs     []record
		firstErr error
		queue    []repeatJob
		rounds   int
	)
	// next hands a client its next job: rounds continue while another
	// allows, and a started round is always finished. Rounds come in whole
	// cycles of one round per model, so each model compiles once a cycle
	// and every run costs the same mix of compiles.
	next := func() (repeatJob, bool) {
		mu.Lock()
		defer mu.Unlock()
		if len(queue) == 0 {
			if firstErr != nil || (rounds%len(w.names) == 0 && !another(start, d, rounds, minWarmRounds)) {
				return repeatJob{}, false
			}
			queue = w.nextRound()
			rounds++
		}
		j := queue[0]
		queue = queue[1:]
		return j, true
	}
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prevDone := time.Time{}
			for {
				j, ok := next()
				if !ok {
					return
				}
				// Closed loop: the client is due to submit the moment its
				// previous job finished; late is how far behind it ran.
				late := time.Duration(0)
				if !prevDone.IsZero() {
					late = time.Since(prevDone)
				}
				rec, err := w.job(j.model, j.seed, j.fresh, led)
				prevDone = time.Now()
				rec.late = late
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				recs = append(recs, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	stats, pool := w.cache.Stats(), w.srv.Pool().Stats()
	led.add("harness.cache_hits", float64(stats.Hits-statsBefore.Hits))
	led.add("harness.cache_misses", float64(stats.Misses-statsBefore.Misses))
	led.add("harness.worker_spawns", float64(pool.Spawns-poolBefore.Spawns))
	led.add("harness.worker_reuses", float64(pool.Reuses-poolBefore.Reuses))
	led.add("server.rejected", 0) // recorded even when nothing was refused
	return recs, firstErr
}

// job submits one job and follows its NDJSON event stream to the final
// record, so completion is seen when it happens rather than at a poll.
func (w *repeatJobs) job(model string, seed uint64, fresh bool, led *ledger) (record, error) {
	body, err := json.Marshal(server.SubmitRequest{
		Model: w.docs[model], Steps: pipe.Steps, Coverage: pipe.Coverage, Diagnose: pipe.Diagnose, Seed: seed,
	})
	if err != nil {
		return record{}, err
	}
	start := time.Now()
	job := led.start(nil, "job", model)
	defer job.end()
	failed := record{model: model, failed: true}
	sp := led.start(job, "POST /v1/jobs", model)
	resp, err := w.http.Post(w.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		sp.end()
		return failed, nil
	}
	var sub server.SubmitResponse
	decErr := json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	sp.end()
	if resp.StatusCode == http.StatusTooManyRequests {
		led.add("server.rejected", 1)
		return failed, nil
	}
	if resp.StatusCode != http.StatusAccepted || decErr != nil {
		return failed, nil
	}
	sp = led.start(job, "GET /v1/jobs/{id}/events", model)
	view, err := w.await(sub.ID)
	sp.end()
	if err != nil || view.State != server.JobDone || view.Result == nil {
		return failed, nil
	}
	dur := time.Since(start)
	sp.set("queue_ns", float64(view.QueueNanos))
	sp.set("run_ns", float64(view.RunNanos))
	for name, ns := range view.Phases {
		sp.set("phase."+name, float64(ns))
	}
	key := refKey(pipe, model, seed, 0)
	ref, err := w.oracle.ref(key)
	if err != nil {
		return record{}, err
	}
	if err := ref.check(key, view.Result, view.Result.Coverage); err != nil {
		return record{}, err
	}
	if fresh == view.CacheHit {
		return record{}, fmt.Errorf("repeat-jobs: %s seed %d: cache hit %v for a job that should %s", model, seed, view.CacheHit,
			map[bool]string{true: "compile", false: "reuse a built program"}[fresh])
	}
	return record{model: model, dur: dur, steps: pipe.Steps}, nil
}

// await reads a job's event stream until its final {"accmosJob": ...}
// record.
func (w *repeatJobs) await(id string) (*server.JobView, error) {
	resp, err := w.http.Get(w.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 64<<20)
	for sc.Scan() {
		var final struct {
			Job *server.JobView `json:"accmosJob"`
		}
		if json.Unmarshal(sc.Bytes(), &final) == nil && final.Job != nil {
			return final.Job, nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("job %s: event stream ended without a final record", id)
}
