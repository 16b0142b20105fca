package cluster

// RunningSet tracks a scheduler's tasks with live copies. Appends record
// the task's slot in Task.SchedPos so removal is O(1) (nil tombstone);
// a compaction sweep runs once tombstones outnumber live entries. The
// live iteration order of Tasks() is exactly the insertion (placement)
// order — the identity contract the speculation scans depend on — so
// consumers iterate the raw slice and skip nils rather than ever
// reordering it. A task belongs to at most one RunningSet at a time
// (SchedPos is a single field on Task).
type RunningSet struct {
	tasks []*Task
	live  int
}

// Tasks returns the backing slice, nil tombstones included, in insertion
// order. Read-only for callers.
func (r *RunningSet) Tasks() []*Task { return r.tasks }

// Len returns the number of live (non-tombstoned) tasks.
func (r *RunningSet) Len() int { return r.live }

// Add appends t, recording its slot for O(1) removal.
func (r *RunningSet) Add(t *Task) {
	t.SchedPos = len(r.tasks)
	r.tasks = append(r.tasks, t)
	r.live++
}

// Remove tombstones t if present (no-op for tasks not in the set).
func (r *RunningSet) Remove(t *Task) {
	if i := t.SchedPos; i < len(r.tasks) && r.tasks[i] == t {
		r.tasks[i] = nil
		r.live--
		if len(r.tasks) >= 32 && r.live*2 < len(r.tasks) {
			r.compact()
		}
	}
}

// compact sweeps tombstones, preserving live order.
func (r *RunningSet) compact() {
	live := r.tasks[:0]
	for _, t := range r.tasks {
		if t != nil {
			t.SchedPos = len(live)
			live = append(live, t)
		}
	}
	for i := len(live); i < len(r.tasks); i++ {
		r.tasks[i] = nil
	}
	r.tasks = live
}
