package main

// Example pins the program's whole output, which the virtual clock makes
// deterministic: the PCA closed loop with and without its supervisor.
func Example() {
	main()
	// Output:
	// == scenario: 2x drug concentration, lax limits, visitor pressing every 3 min ==
	//
	// WITHOUT supervisor:
	//    drug delivered: 80.0 mg  (boluses 40, denied by lockout 3)
	//    min SpO2 75.0%, time below 90%: 4787 s, below 85%: 3838 s
	//    outcome: PATIENT IN RESPIRATORY DISTRESS
	//
	//    [31m40.101247333s] ALARM desat: SpO2 93.0 below 93.0; stopping PCA pump
	//    [1h5m4.102026369s] ALARM desat: SpO2 92.9 below 93.0; stopping PCA pump
	//    [1h42m44.102446884s] ALARM desat: SpO2 93.0 below 93.0; stopping PCA pump
	// WITH supervisor:
	//    drug delivered: 39.5 mg  (boluses 20, denied by lockout 23)
	//    min SpO2 92.0%, time below 90%: 0 s, below 85%: 0 s
	//    outcome: patient safe
	//    supervisor: 3 stops, mean decision-to-ack latency 4.171552ms
	//
	// The supervisor cannot retrieve drug already on board; it wins by cutting
	// delivery at the first sustained desaturation — the paper's closed-loop case.
}
