package main

// Example pins the program's whole output, which the virtual clock makes
// deterministic: the three X-ray/ventilator synchronization protocols.
func Example() {
	main()
	// Output:
	// 10 chest images during mechanical ventilation, healthy 2 ms network:
	//
	// manual         sharp=0 blurred=10 deferred=0 | unventilated 0 s, min SpO2 98.0%
	// pause-restart  sharp=10 blurred=0 deferred=0 | unventilated 20 s, min SpO2 94.2%
	// state-sync     sharp=10 blurred=0 deferred=0 | unventilated 0 s, min SpO2 98.0%
	//
	// state-sync gets sharp images with zero interruption of ventilation —
	// the paper's "safer alternative, although presenting tighter timing constraints".
}
