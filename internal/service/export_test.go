package service

// SetTestHookBeforeJob installs a hook run at the start of every job
// execution. Test-only: the queue-full test uses it to hold the executor
// while it fills the queue.
func (s *Server) SetTestHookBeforeJob(f func()) { s.testHookBeforeJob = f }

// JobState reads job id's state directly, so a test can poll it without
// each poll adding an entry to the trace ring.
func (s *Server) JobState(id string) JobState {
	j, ok := s.queue.get(id)
	if !ok {
		return ""
	}
	return j.status().State
}
