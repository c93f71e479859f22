package service

import (
	"testing"
	"time"

	"repro/internal/protocol"
)

// TestParkWake drives the idle long-poll by hand: an idle session asks for
// work, gets a parking, and each wake source must release it so that the
// next pass answers at once. A missed wake shows as the park running out
// its bound — counted "expired" rather than "woken" — so the test makes no
// timing assertion and needs no sleep.
func TestParkWake(t *testing.T) {
	oneChunk := func(seed uint64, timeout time.Duration) JobSpec {
		return JobSpec{Spec: slabSpec(5), TotalPhotons: 100, ChunkPhotons: 100, Seed: seed,
			ChunkTimeout: timeout}
	}
	submit := func(t *testing.T, reg *Registry, spec JobSpec) *Job {
		t.Helper()
		out, err := reg.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		return out.Job
	}
	// grabOnly hands the job's only chunk to a fresh holder session.
	grabOnly := func(t *testing.T, reg *Registry) (*session, *protocol.TaskAssign) {
		t.Helper()
		holder := newTestSession(reg, 2, "holder")
		a := reg.nextAssignment(holder, nil).Assign
		if a == nil {
			t.Fatal("holder got no chunk")
		}
		return holder, a
	}

	cases := []struct {
		name string
		opts Options
		// arrange prepares the registry before the idle session asks and
		// returns that session's request and the event that should release
		// it (nil: the request must not park at all).
		arrange func(t *testing.T, reg *Registry, idle *session) (*protocol.TaskRequest, func())
		// blocked fires the event while park is waiting; otherwise it lands
		// between the no-candidate decision and the wait.
		blocked bool
		bound   time.Duration // expected park bound
		done    bool          // the pass after the park answers Done
	}{
		{
			name: "submit wakes a parked session",
			arrange: func(t *testing.T, reg *Registry, _ *session) (*protocol.TaskRequest, func()) {
				return &protocol.TaskRequest{}, func() { submit(t, reg, oneChunk(1, 0)) }
			},
			blocked: true,
			bound:   idleRetry,
		},
		{
			name: "submit between decision and wait is not lost",
			arrange: func(t *testing.T, reg *Registry, _ *session) (*protocol.TaskRequest, func()) {
				return &protocol.TaskRequest{}, func() { submit(t, reg, oneChunk(2, 0)) }
			},
			bound: idleRetry,
		},
		{
			name: "disconnect requeue wakes and hands over the chunk",
			arrange: func(t *testing.T, reg *Registry, _ *session) (*protocol.TaskRequest, func()) {
				submit(t, reg, oneChunk(3, 40*time.Millisecond))
				holder, _ := grabOnly(t, reg)
				return &protocol.TaskRequest{}, func() { reg.releaseSession(holder) }
			},
			// The live job's ChunkTimeout clamps the bound, so parked
			// workers keep driving timeout reclaim at its cadence.
			bound: 10 * time.Millisecond,
		},
		{
			name: "drain answers a parked session Done",
			opts: Options{DrainOnEmpty: true, CacheSize: -1},
			arrange: func(t *testing.T, reg *Registry, _ *session) (*protocol.TaskRequest, func()) {
				j := submit(t, reg, oneChunk(4, 0))
				holder, a := grabOnly(t, reg)
				tally := localTally(t, j.spec.Spec, 100, 100, 4)
				return &protocol.TaskRequest{}, func() {
					if ack := reduceOne(reg, holder, j.ID(), a.ChunkID, tally); ack.Rejected {
						t.Fatalf("last chunk rejected: %s", ack.Reason)
					}
				}
			},
			blocked: true,
			bound:   idleRetry,
			done:    true,
		},
		{
			name: "a session holding results is never parked",
			arrange: func(t *testing.T, reg *Registry, idle *session) (*protocol.TaskRequest, func()) {
				j := submit(t, reg, oneChunk(5, 0))
				a := reg.nextAssignment(idle, nil).Assign
				return &protocol.TaskRequest{Holding: []protocol.ChunkRef{{JobID: j.ID(), ChunkID: a.ChunkID}}}, nil
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := New(tc.opts)
			idle := newTestSession(reg, 1, "idle")
			req, event := tc.arrange(t, reg, idle)
			woken, expired := reg.met.parksWoken.Value(), reg.met.parksExpired.Value()

			msg, p := reg.assignOrPark(idle, req, true)
			if msg.Type != protocol.MsgNoWork || msg.NoWork.Done || msg.NoWork.RetryIn != 0 {
				t.Fatalf("idle pass answered %v %+v, want NoWork{RetryIn: 0}", msg.Type, msg.NoWork)
			}
			if event == nil {
				reg.mu.Lock()
				made := reg.wake != nil
				reg.mu.Unlock()
				if p.wake != nil || made {
					t.Fatal("session holding assignments was parked")
				}
				return
			}
			if p.wake == nil {
				t.Fatal("idle session got no park channel")
			}
			if p.bound != tc.bound {
				t.Fatalf("park bound %v, want %v", p.bound, tc.bound)
			}

			if tc.blocked {
				parked := make(chan struct{})
				go func() {
					reg.park(p)
					close(parked)
				}()
				event()
				<-parked
			} else {
				event()
				select {
				case <-p.wake:
				default:
					t.Fatal("wake landing before the wait was lost")
				}
				reg.park(p)
			}
			if got := reg.met.parksWoken.Value() - woken; got != 1 {
				t.Fatalf("woken parks moved by %d, want 1", got)
			}
			if got := reg.met.parksExpired.Value() - expired; got != 0 {
				t.Fatalf("park expired %d times instead of waking", got)
			}
			reg.mu.Lock()
			if reg.wake != nil {
				t.Error("wake channel left allocated with nobody parked")
			}
			reg.mu.Unlock()

			msg = reg.nextAssignment(idle, req)
			switch {
			case tc.done:
				if msg.Type != protocol.MsgNoWork || !msg.NoWork.Done {
					t.Fatalf("drained registry answered %v, want NoWork{Done}", msg.Type)
				}
			case msg.Type != protocol.MsgTaskAssign:
				t.Fatalf("woken session answered %v, want a grant", msg.Type)
			}
		})
	}
}

// newTestSession registers a bare session the way registerSession would,
// without a connection.
func newTestSession(reg *Registry, id uint64, name string) *session {
	s := &session{id: id, name: name, knownJobs: map[uint64]bool{}}
	reg.mu.Lock()
	reg.sessions[s.id] = s
	reg.mu.Unlock()
	return s
}
