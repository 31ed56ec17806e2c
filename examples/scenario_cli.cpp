// Command-line scenario runner: build-your-own experiment without writing
// C++.  Runs the restricted topology (Figure 1) with configurable receiver
// count, bottleneck capacity, gateway type, ECN, and duration, then prints
// the per-flow report and the essential-fairness audit.
//
//   $ ./scenario_cli --receivers 9 --share 150 --gateway red --duration 300
//   $ ./scenario_cli --receivers 4 --tcp-per-branch 2 --seed 7
//   $ ./scenario_cli --help
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <type_traits>

#include "model/formulas.hpp"
#include "topo/flat_tree.hpp"

using namespace rlacast;

namespace {

struct CliOptions {
  int receivers = 6;
  int tcp_per_branch = 1;
  double share_pps = 100.0;  // per-flow fair share at each branch bottleneck
  topo::GatewayType gateway = topo::GatewayType::kDropTail;
  bool ecn = false;
  double duration = 300.0;
  double warmup = 60.0;
  std::uint64_t seed = 1;
};

[[noreturn]] void usage(const char* argv0, int code) {
  std::printf(
      "usage: %s [options]\n"
      "  --receivers N       multicast receivers / branches (default 6)\n"
      "  --tcp-per-branch N  competing TCPs per branch (default 1)\n"
      "  --share PPS         per-flow fair share at each bottleneck "
      "(default 100)\n"
      "  --gateway TYPE      droptail | red (default droptail)\n"
      "  --ecn               ECN marking + ECN endpoints (implies red)\n"
      "  --duration S        simulated seconds (default 300)\n"
      "  --warmup S          statistics discarded before S (default 60)\n"
      "  --seed N            master seed (default 1)\n",
      argv0);
  std::exit(code);
}

/// Parses the whole of `text` as a T (finite, for floating point); anything
/// else exits 2.
template <typename T>
T parse_number(const char* flag, const char* text) {
  T value{};
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, value);
  bool ok = ec == std::errc() && ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) {
    std::fprintf(stderr, "invalid value for %s: '%s'\n", flag, text);
    std::exit(2);
  }
  return value;
}

CliOptions parse(int argc, char** argv) {
  CliOptions o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0], 2);
      return argv[++i];
    };
    if (a == "--receivers")
      o.receivers = parse_number<int>("--receivers", value());
    else if (a == "--tcp-per-branch")
      o.tcp_per_branch = parse_number<int>("--tcp-per-branch", value());
    else if (a == "--share")
      o.share_pps = parse_number<double>("--share", value());
    else if (a == "--gateway") {
      const std::string g = value();
      if (g == "red")
        o.gateway = topo::GatewayType::kRed;
      else if (g == "droptail")
        o.gateway = topo::GatewayType::kDropTail;
      else {
        std::fprintf(stderr, "invalid value for --gateway: '%s'\n", g.c_str());
        std::exit(2);
      }
    } else if (a == "--ecn")
      o.ecn = true;
    else if (a == "--duration")
      o.duration = parse_number<double>("--duration", value());
    else if (a == "--warmup")
      o.warmup = parse_number<double>("--warmup", value());
    else if (a == "--seed")
      o.seed = parse_number<std::uint64_t>("--seed", value());
    else if (a == "--help" || a == "-h")
      usage(argv[0], 0);
    else
      usage(argv[0], 2);
  }
  if (o.receivers < 1 || o.tcp_per_branch < 0 || o.share_pps <= 0 ||
      o.duration <= o.warmup)
    usage(argv[0], 2);
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions o = parse(argc, argv);

  topo::FlatTreeConfig cfg;
  cfg.branches.assign(
      static_cast<std::size_t>(o.receivers),
      topo::FlatBranch{o.share_pps * (o.tcp_per_branch + 1),
                       o.tcp_per_branch});
  cfg.gateway = o.ecn ? topo::GatewayType::kRed : o.gateway;
  cfg.red.ecn = o.ecn;
  cfg.rla.ecn = o.ecn;
  cfg.tcp.ecn = o.ecn;
  cfg.duration = o.duration;
  cfg.warmup = o.warmup;
  cfg.seed = o.seed;

  std::printf("running: %d receivers, %d TCP/branch, share %.0f pkt/s, "
              "%s%s, %.0f s (warmup %.0f), seed %llu\n\n",
              o.receivers, o.tcp_per_branch, o.share_pps,
              cfg.gateway == topo::GatewayType::kRed ? "RED" : "drop-tail",
              o.ecn ? "+ECN" : "", o.duration, o.warmup,
              static_cast<unsigned long long>(o.seed));

  const auto res = topo::run_flat_tree(cfg);

  std::printf("RLA multicast : %7.1f pkt/s  cwnd %5.1f  rtt %.3f s  "
              "%llu signals -> %llu cuts (%llu forced, %llu timeouts)\n",
              res.rla.throughput_pps, res.rla.avg_cwnd, res.rla.avg_rtt,
              static_cast<unsigned long long>(res.rla.cong_signals),
              static_cast<unsigned long long>(res.rla.window_cuts),
              static_cast<unsigned long long>(res.rla.forced_cuts),
              static_cast<unsigned long long>(res.rla.timeouts));
  for (std::size_t i = 0; i < res.tcps.size(); ++i)
    std::printf("TCP %-2zu (br %d) : %7.1f pkt/s  cwnd %5.1f  rtt %.3f s\n",
                i + 1, res.tcp_branch[i], res.tcps[i].throughput_pps,
                res.tcps[i].avg_cwnd, res.tcps[i].avg_rtt);

  if (!res.tcps.empty()) {
    const double wtcp = res.worst_tcp().throughput_pps;
    const auto bounds = cfg.gateway == topo::GatewayType::kRed
                            ? model::theorem1_red_bounds(o.receivers)
                            : model::theorem2_droptail_bounds(o.receivers);
    const double ratio = wtcp > 0 ? res.rla.throughput_pps / wtcp : 0.0;
    std::printf("\nessential fairness: RLA/WTCP = %.2f, proven bounds "
                "(%.2f, %.2f) -> %s\n",
                ratio, bounds.lo, bounds.hi,
                bounds.contains(ratio) ? "within" : "OUTSIDE");
  }
  std::printf("troubled receivers at end: %d / %d\n", res.num_troubled_final,
              o.receivers);
  return 0;
}
