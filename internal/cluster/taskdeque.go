package cluster

// TaskDeque is a head-indexed ring deque of tasks. It is the scheduler
// hot-path replacement for plain []*Task queues: PushFront/PushBack are
// O(1) with no allocation (the old front-requeue pattern
// `append([]*Task{t}, queue...)` allocated a fresh slice per retry), and
// the backing array is reused across grow cycles. Iteration order is
// front to back, identical to the slice it replaces. The zero value is an
// empty deque.
type TaskDeque struct {
	buf  []*Task
	head int
	n    int
}

// Len returns the number of queued tasks.
func (q *TaskDeque) Len() int { return q.n }

// At returns the i-th task from the front (0 <= i < Len).
func (q *TaskDeque) At(i int) *Task {
	return q.buf[(q.head+i)&(len(q.buf)-1)]
}

// grow doubles capacity (power of two, for mask indexing), relinearizing
// the ring so head is 0.
func (q *TaskDeque) grow() {
	c := len(q.buf) * 2
	if c == 0 {
		c = 8
	}
	nb := make([]*Task, c)
	for i := 0; i < q.n; i++ {
		nb[i] = q.At(i)
	}
	q.buf = nb
	q.head = 0
}

// PushBack appends t at the back.
func (q *TaskDeque) PushBack(t *Task) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = t
	q.n++
}

// PushFront inserts t at the front (the retry-first requeue).
func (q *TaskDeque) PushFront(t *Task) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.head = (q.head - 1) & (len(q.buf) - 1)
	q.buf[q.head] = t
	q.n++
}

// RemoveAt deletes the i-th task from the front, preserving the relative
// order of the rest (the identity contract requires queue order to match
// the slice implementation it replaced). The shorter side is shifted.
func (q *TaskDeque) RemoveAt(i int) {
	mask := len(q.buf) - 1
	if i < q.n-i-1 {
		for k := i; k > 0; k-- {
			q.buf[(q.head+k)&mask] = q.buf[(q.head+k-1)&mask]
		}
		q.buf[q.head] = nil
		q.head = (q.head + 1) & mask
	} else {
		for k := i; k < q.n-1; k++ {
			q.buf[(q.head+k)&mask] = q.buf[(q.head+k+1)&mask]
		}
		q.buf[(q.head+q.n-1)&mask] = nil
	}
	q.n--
}

// Remove deletes the first occurrence of t, preserving order. Reports
// whether t was found.
func (q *TaskDeque) Remove(t *Task) bool {
	for i := 0; i < q.n; i++ {
		if q.At(i) == t {
			q.RemoveAt(i)
			return true
		}
	}
	return false
}
