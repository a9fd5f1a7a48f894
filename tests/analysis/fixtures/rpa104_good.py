"""RPA104 fixture: all surfaces agree with the registry."""

ENGINES = ("alpha", "beta")  # repro: engine-registry
SERVICE_ENGINES = ("beta",)  # repro: engine-registry

SESSION_VALID = ("alpha", "beta")  # repro: engine-surface all
CLI_CHOICES = ["beta"]  # repro: engine-surface service
FUZZ_LOCKSTEP = ("alpha", "beta")  # repro: engine-surface fuzzer
