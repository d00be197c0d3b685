// Fixture: obs/ sits below serve/ — one live include of a serving header
// (the violation), and neither the obs/ include nor the commented-out
// copy counts.
#include "obs/latency_stats.h"
#include "serve/batcher.h"
// #include "serve/server.h"
