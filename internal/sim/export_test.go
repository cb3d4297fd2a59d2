package sim

// Buffers returns the current sender and receiver staging occupancies.
func (s *Simulator) Buffers() (sender, receiver float64) {
	return s.senderBuf, s.receiverBuf
}
