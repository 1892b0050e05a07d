// erq_server — the multi-tenant HTTP front end over a TPC-R-style
// database with the empty-result detection workflow wired in.
//
//   $ ./erq_server --port 8080
//   erq_server listening on 127.0.0.1:8080
//
//   $ curl -s localhost:8080/v1/query
//       -d '{"sql":"select * from orders where totalprice < 0","tenant":"a"}'
//
// Endpoints: POST /v1/query, GET /metrics, GET /v1/admin/cache,
// POST /v1/admin/invalidate?table=T. See DESIGN.md §"Server & tenancy".
//
// Runs until stdin reaches EOF or a `quit` line — a driver (check.sh's
// server smoke) shuts it down cleanly by closing the pipe.

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <map>
#include <string>

#include "common/string_util.h"
#include "server/server.h"
#include "workload/tpcr.h"

using namespace erq;

namespace {

void PrintUsage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--host A] [--port N] [--max-connections N]\n"
               "          [--max-tenants N] [--global-n-max N]\n"
               "          [--customers-per-unit N] [--enable-reuse]\n"
               "          [--global-reuse-bytes N]\n"
               "N is an unsigned decimal integer (--port: at most 65535,\n"
               "--customers-per-unit: at most 1000000).\n"
               "--enable-reuse turns on the per-tenant intermediate-result\n"
               "store (DESIGN.md §13); --global-reuse-bytes is the budget\n"
               "split evenly across tenants (default 64 MiB).\n"
               "Serves until stdin closes or reads a `quit` line.\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  ServerOptions options;
  options.port = 8080;
  size_t customers_per_unit = 500;
  // The flags besides --port that take an unsigned decimal integer, with
  // their upper bounds. The --customers-per-unit bound keeps BuildTpcr's
  // row counts (40 lineitems per customer) far from overflow.
  struct SizeFlag {
    size_t* target;
    uint64_t max;
  };
  const std::map<std::string, SizeFlag> size_flags = {
      {"--max-connections", {&options.max_connections, SIZE_MAX}},
      {"--max-tenants", {&options.max_tenants, SIZE_MAX}},
      {"--global-n-max", {&options.global_n_max, SIZE_MAX}},
      {"--global-reuse-bytes", {&options.global_reuse_bytes, SIZE_MAX}},
      {"--customers-per-unit", {&customers_per_unit, 1000000}},
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--help" || arg == "-h") {
      PrintUsage(argv[0]);
      return 0;
    }
    if (arg == "--enable-reuse") {
      options.tenant_config.reuse.enabled = true;
      continue;
    }
    if (value == nullptr) {
      std::fprintf(stderr, "missing value for %s\n", arg.c_str());
      return 2;
    }
    if (arg == "--host") {
      options.host = value;
    } else if (arg == "--port" || size_flags.count(arg) != 0) {
      const bool port = arg == "--port";
      StatusOr<uint64_t> n =
          ParseDecimal(value, port ? UINT16_MAX : size_flags.at(arg).max);
      if (!n.ok()) {
        std::fprintf(stderr, "bad value for %s: %s\n", arg.c_str(),
                     n.status().ToString().c_str());
        PrintUsage(argv[0]);
        return 2;
      }
      if (port) {
        options.port = static_cast<uint16_t>(*n);
      } else {
        *size_flags.at(arg).target = static_cast<size_t>(*n);
      }
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      PrintUsage(argv[0]);
      return 2;
    }
    ++i;
  }

  Catalog catalog;
  TpcrConfig tpcr;
  tpcr.customers_per_unit = customers_per_unit;
  auto instance = BuildTpcr(&catalog, tpcr);
  if (!instance.ok()) {
    std::fprintf(stderr, "BuildTpcr: %s\n",
                 instance.status().ToString().c_str());
    return 1;
  }
  if (auto s = BuildTpcrIndexes(&catalog); !s.ok()) {
    std::fprintf(stderr, "BuildTpcrIndexes: %s\n", s.ToString().c_str());
    return 1;
  }
  StatsCatalog stats;
  if (auto s = stats.AnalyzeAll(catalog); !s.ok()) {
    std::fprintf(stderr, "AnalyzeAll: %s\n", s.ToString().c_str());
    return 1;
  }

  options.tenant_config.c_cost = 0.0;

  ErqServer server(&catalog, &stats, options);
  if (auto s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "Start: %s\n", s.ToString().c_str());
    return 1;
  }
  // The line the smoke test (and any driver) waits for before probing.
  std::printf("erq_server listening on %s:%u\n", options.host.c_str(),
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  std::string line;
  while (std::getline(std::cin, line)) {
    if (line == "quit" || line == "exit") break;
  }
  server.Stop();
  std::printf("erq_server stopped\n");
  return 0;
}
