// Package distsys implements the paper's distributed computing element: a
// DataManager server that assigns Monte Carlo simulation chunks to client
// PCs and reduces the returned partial tallies, and the worker ("Algorithm")
// client that computes them. Workers are assumed non-dedicated and
// unreliable: chunks that do not return within a deadline are reassigned,
// duplicate results are deduplicated so the reduction is exactly-once, and
// results that do not match a current assignment (a stale worker from a
// previous run, a forged JobID) are rejected outright.
//
// Since the service layer landed, DataManager is a thin single-job facade
// over service.Registry — the multi-tenant job registry and shared-fleet
// dispatcher in internal/service. One DataManager is one registry holding
// one job and draining its fleet when the job completes; cmd/mcqueue runs
// the same machinery as a long-lived, many-job service.
//
// The worker speaks the protocol v3 result plane: chunks are computed
// across the job's fan of RNG sub-streams on all available cores,
// pre-reduced per job into a batch buffer, and flushed as one ResultBatch
// (compact-codec tallies) riding the next task request — with the
// buffered chunks advertised as Holding so the server keeps their
// assignments alive, and per-chunk acks reporting each chunk as reduced,
// duplicate or rejected.
package distsys

import (
	"io"
	"log/slog"
	"net"
	"time"

	"repro/internal/mc"
	"repro/internal/obs"
	"repro/internal/service"
)

// JobOptions configure a distributed simulation job.
type JobOptions struct {
	Spec         *mc.Spec
	TotalPhotons int64
	// ChunkPhotons is the number of photons per work unit. The paper's
	// platform uses dynamic self-scheduling: fixed-size chunks pulled by
	// idle clients.
	ChunkPhotons int64
	Seed         uint64
	// ChunkTimeout reassigns a chunk if its result has not arrived in time
	// (non-dedicated clients may slow down or vanish). Zero disables
	// reassignment.
	ChunkTimeout time.Duration
	// Obs receives the underlying registry's service-plane metrics; nil
	// instruments into a private registry.
	Obs *obs.Registry
	// Logger, if set, receives structured progress logging (nil discards).
	Logger *slog.Logger
}

// WorkerInfo summarises one connected client.
type WorkerInfo = service.WorkerInfo

// Result is the outcome of a completed job.
type Result = service.Result

// DataManager is the single-job server. Create with NewDataManager, serve
// connections with Serve or HandleConn, then Wait for the reduced result.
type DataManager struct {
	reg *service.Registry
	job *service.Job
}

// NewDataManager validates the job and prepares the chunk queue.
func NewDataManager(opts JobOptions) (*DataManager, error) {
	reg := service.New(service.Options{
		DrainOnEmpty: true,
		CacheSize:    -1, // a one-shot job has nothing to deduplicate against
		Obs:          opts.Obs,
		Logger:       opts.Logger,
	})
	out, err := reg.Submit(service.JobSpec{
		Spec:         opts.Spec,
		TotalPhotons: opts.TotalPhotons,
		ChunkPhotons: opts.ChunkPhotons,
		Seed:         opts.Seed,
		ChunkTimeout: opts.ChunkTimeout,
	})
	if err != nil {
		return nil, err
	}
	return &DataManager{reg: reg, job: out.Job}, nil
}

// NumChunks returns the total number of work units.
func (dm *DataManager) NumChunks() int { return dm.job.NumChunks() }

// Serve accepts worker connections on l until the job completes or l is
// closed. Each connection is handled on its own goroutine.
func (dm *DataManager) Serve(l net.Listener) error { return dm.reg.Serve(l) }

// HandleConn speaks the protocol with one worker over any stream transport
// (TCP connection or in-memory pipe).
func (dm *DataManager) HandleConn(rw io.ReadWriteCloser) error { return dm.reg.HandleConn(rw) }

// Done returns a channel closed when every chunk has been reduced.
func (dm *DataManager) Done() <-chan struct{} { return dm.job.Done() }

// Wait blocks until the job completes or the timeout elapses (zero waits
// forever), then returns the reduced result.
func (dm *DataManager) Wait(timeout time.Duration) (*Result, error) {
	return dm.job.Wait(timeout)
}

// Progress returns the number of reduced chunks (for status displays).
func (dm *DataManager) Progress() (completed, total int) { return dm.job.Progress() }

// Stats exposes the underlying registry's fleet counters (rejected
// results, chunks assigned, connected workers).
func (dm *DataManager) Stats() service.Stats { return dm.reg.Stats() }
