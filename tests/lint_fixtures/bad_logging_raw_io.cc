// Raw console I/O inside src/: bypasses the logging package,
// interleaves with stats/trace output, and cannot be silenced by
// tests. Use SHRIMP_WARN / SHRIMP_INFORM, or the tracer for events.
#include <cstdio>
#include <iostream>

void
reportDrops(int n)
{
    printf("drops: %d\n", n);
}

void
reportPeers(int n)
{
    std::cout << "peers: " << n << "\n";
}
