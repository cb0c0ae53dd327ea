// scsql_shell — run SCSQL scripts against a simulated LOFAR environment.
//
//   $ ./tools/scsql_shell query.scsql          # run a script file
//   $ echo "select 1+2;" | ./tools/scsql_shell # or read stdin
//
// Settings: the SCSQ_* variables of exec/config.hpp, resolved once; a
// bad value is an scsql error, exit status 1. SCSQ_BUFFER_BYTES,
// SCSQ_SEND_BUFFERS, SCSQ_MAX_RESULTS and SCSQ_SMART_SELECT set the
// ExecOptions; SCSQ_VERBOSE=1 prints the per-RP table after each query;
// SCSQ_SAMPLE_INTERVAL pre-arms the sampler (as \watch, without live
// lines) and SCSQ_MONITOR pre-registers a monitor (as \monitor).
// SCSQ_TRACE=path writes a Chrome-tracing JSON of the session
// (chrome://tracing or Perfetto). SCSQ_RECORD=path writes the JSONL run
// record (exec/record.hpp): each statement's metrics, profile,
// window and alert lines, and an error line for a statement that fails.
//
// Each query statement prints its result stream, the simulated elapsed
// time, and the total stream volume — the same numbers the paper's
// measurement methodology uses.
//
// Shell commands (a line of their own in the script/stdin):
//   \metrics [filter] [> file]
//              print the metrics-registry snapshot (Prometheus text
//              format) and the per-RP table of the last query. With a
//              filter argument only series whose name{labels} key
//              contains it are shown; with "> file" the Prometheus text
//              goes to the file instead of stdout (a summary line is
//              printed).
//   \explain analyze <query>;
//              run the query (which may span several lines, up to the
//              terminating ';') and print the EXPLAIN ANALYZE report:
//              the measured dataflow plan tree, the critical path, and
//              the per-cause time attribution.
//   \profile   print the EXPLAIN ANALYZE report of the last query.
//   \watch <interval_s> [series]
//              arm the sim-time telemetry sampler: subsequent queries
//              print one rate line per window (windows of <interval_s>
//              simulated seconds, a finite decimal of at least 1e-6)
//              for counters whose key contains `series` (default
//              transport.link.bytes). Lines are flushed as each window
//              closes, so piping through `tail -f` (or watching a
//              redirected file) shows the run live; Ctrl-C ends the
//              shell cleanly mid-run. "\watch off" disarms. Sampling is
//              observational: query results and timings are unchanged
//              (DESIGN.md §5.7).
//   \monitor <query>
//              register a continuous introspection query (DESIGN.md
//              §5.8) over system.metrics / system.gauges /
//              system.rates; it runs at every sampler window boundary of
//              subsequent statements, and matched rows are counted
//              after each statement (and written to the run record
//              when SCSQ_RECORD is set). Requires an armed sampler
//              (\watch or SCSQ_SAMPLE_INTERVAL) to ever fire. Monitors
//              are zero-perturbation: results and timings are
//              byte-identical with monitors on or off.
//   \monitors  list registered monitors with their last-statement alert
//              counts.
//   \unmonitor [name]
//              remove one monitor by name, or all monitors.
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/scsq.hpp"
#include "exec/config.hpp"
#include "exec/record.hpp"
#include "sim/trace.hpp"
#include "util/bytes.hpp"

namespace {

// Ctrl-C mid-run: emit a newline so a partial \watch line does not run
// into the prompt, then exit with the conventional 128+SIGINT status.
// Only async-signal-safe calls here — live-watch lines are flushed per
// window, so _exit() loses at most the line being built.
void on_sigint(int) {
  const char msg[] = "\n-- interrupted\n";
  ::write(STDOUT_FILENO, msg, sizeof(msg) - 1);
  ::_exit(130);
}

void print_rp_table(const scsq::exec::RunReport& report) {
  for (const auto& rp : report.rps) {
    std::printf("   rp#%-3llu %-6s out=%-8llu tx=%-12llu rx=%-12llu stall=%.6fs %s\n",
                static_cast<unsigned long long>(rp.id), rp.loc.to_string().c_str(),
                static_cast<unsigned long long>(rp.elements_out),
                static_cast<unsigned long long>(rp.bytes_sent),
                static_cast<unsigned long long>(rp.bytes_received), rp.stall_s,
                rp.query.c_str());
  }
}

void print_metrics(scsq::Scsq& scsq, const scsq::exec::RunReport* last_report,
                   const std::string& filter, const std::string& out_path) {
  scsq.machine().publish_metrics();
  auto& registry = scsq.machine().metrics();
  std::ostringstream os;
  const std::size_t written = registry.write_prometheus(os, filter);
  if (!out_path.empty()) {
    std::ofstream out(out_path, std::ios::trunc);
    if (!out) {
      std::printf("-- cannot open %s\n", out_path.c_str());
      return;
    }
    out << os.str();
    std::printf("-- %zu series written to %s\n", written, out_path.c_str());
    return;
  }
  if (filter.empty()) {
    std::printf("-- metrics snapshot (%zu series)\n", registry.size());
  } else {
    std::printf("-- metrics snapshot (%zu of %zu series match '%s')\n", written,
                registry.size(), filter.c_str());
  }
  std::fputs(os.str().c_str(), stdout);
  if (last_report != nullptr && !last_report->rps.empty()) {
    std::printf("-- per-RP stats of the last query\n");
    print_rp_table(*last_report);
  }
}

void print_profile(scsq::Scsq& scsq, const scsq::exec::RunReport* last_report) {
  if (last_report == nullptr || last_report->rp_count == 0) {
    std::printf("-- no query to profile\n");
    return;
  }
  std::ostringstream os;
  scsq.engine().profile(*last_report).render_text(os);
  std::fputs(os.str().c_str(), stdout);
}

// One live \watch line per sampler window. Called from the engine's
// window listener as each window closes (inside the zero-duration
// sample callback — host-side printing only, the simulation clock is
// untouched) and flushed immediately, so redirected output can be
// followed with `tail -f` while the statement runs. `series` selects
// the counters summed into the printed rate (substring of the metric
// key, e.g. "transport.link.bytes" or "sqep.items").
void print_watch_window(const scsq::obs::Sampler::Window& w, const std::string& series) {
  const double rate = w.counter_rate_sum(series);
  if (series.find("bytes") != std::string::npos) {
    std::printf("   [%10.6f, %10.6f) %12s/s\n", w.t_start, w.t_end,
                scsq::util::format_bytes(static_cast<std::uint64_t>(rate)).c_str());
  } else {
    std::printf("   [%10.6f, %10.6f) %12.6g /s\n", w.t_start, w.t_end, rate);
  }
  std::fflush(stdout);
}

void print_watch_summary(scsq::Scsq& scsq, const std::string& series) {
  const auto& windows = scsq.engine().sampler().windows();
  if (windows.empty()) {
    std::printf("-- watch: no sampler windows (query shorter than the interval?)\n");
    return;
  }
  std::printf("-- watch: %zu window(s), series '%s'\n", windows.size(), series.c_str());
}

// Post-statement monitor summary: per-monitor alert counts for the
// statement that just ran (the alert rows themselves go to the run
// record).
void print_monitor_summary(scsq::Scsq& scsq) {
  const auto monitors = scsq.engine().monitors();
  if (monitors.empty()) return;
  std::size_t total = 0;
  for (const auto& m : monitors) total += m.alerts;
  std::printf("-- monitors: %zu alert(s)", total);
  for (const auto& m : monitors) {
    std::printf(" %s=%zu", m.name.c_str(), m.alerts);
  }
  std::printf("\n");
}

void print_report(const scsq::exec::RunReport& report, bool verbose) {
  std::printf("-- %zu result(s)", report.results.size());
  if (report.stopped) std::printf(" [stopped]");
  std::printf("\n");
  for (std::size_t i = 0; i < report.results.size(); ++i) {
    if (i == 20 && report.results.size() > 25) {
      std::printf("   ... (%zu more)\n", report.results.size() - i);
      break;
    }
    std::printf("   %s\n", report.results[i].to_string().c_str());
  }
  std::printf("-- %.6f s simulated (%.3f ms setup), %s streamed, %zu stream process(es)\n",
              report.elapsed_s, report.setup_s * 1e3,
              scsq::util::format_bytes(report.stream_bytes).c_str(), report.rp_count);
  if (verbose) print_rp_table(report);
}

std::string trimmed(const std::string& s) {
  const auto first = s.find_first_not_of(" \t\r\n");
  if (first == std::string::npos) return {};
  const auto last = s.find_last_not_of(" \t\r\n");
  return s.substr(first, last - first + 1);
}

// "\metrics", "\metrics link", "\metrics > snap.prom",
// "\metrics transport > snap.prom" — filter before '>', path after.
void parse_metrics_args(const std::string& rest, std::string& filter,
                        std::string& out_path) {
  const auto gt = rest.find('>');
  if (gt == std::string::npos) {
    filter = trimmed(rest);
  } else {
    filter = trimmed(rest.substr(0, gt));
    out_path = trimmed(rest.substr(gt + 1));
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string source;
  if (argc > 1) {
    std::ifstream in(argv[1]);
    if (!in) {
      std::fprintf(stderr, "scsql_shell: cannot open %s\n", argv[1]);
      return 2;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    source = ss.str();
  } else {
    std::stringstream ss;
    ss << std::cin.rdbuf();
    source = ss.str();
  }

  std::signal(SIGINT, on_sigint);

  // Everything from reading the settings on can reject bad input (an
  // environment setting, a statement): report it as an scsql error.
  try {
    const scsq::exec::Settings settings = scsq::exec::from_env();
    std::ofstream record;
    if (!settings.record_path.empty()) record = scsq::exec::open_record(settings);
    scsq::Scsq scsq(settings.config);
    scsq::exec::register_env_monitor(scsq.engine(), settings);
    scsq::sim::Trace trace;
    if (!settings.trace_path.empty()) scsq.machine().set_trace(&trace);
    scsq::exec::RunReport last_report;
    bool have_report = false;
    std::size_t statements_run = 0;  // ordinal of the next statement in the record
    bool watch_on = scsq.engine().sampler().enabled();  // SCSQ_SAMPLE_INTERVAL
    std::string watch_series = "transport.link.bytes";
    // Live \watch: one flushed line per window, as the run progresses.
    scsq.engine().add_window_listener(
        [&](const scsq::obs::Sampler::Window& w, std::size_t) {
          if (watch_on) print_watch_window(w, watch_series);
        });
    const auto run_statement = [&](const scsq::scsql::Statement& statement,
                                   const std::string& tag) {
      const std::string text = statement.query->to_string();
      std::printf(">> %s;\n", text.c_str());
      try {
        last_report = scsq.engine().run_statement(statement);
      } catch (const scsq::scsql::Error& e) {
        record << scsq::exec::error_line(tag, text, e) << std::flush;
        throw;
      }
      have_report = true;
      print_report(last_report, settings.verbose);
      if (watch_on) print_watch_summary(scsq, watch_series);
      print_monitor_summary(scsq);
      if (!record.is_open()) return;
      record << scsq::exec::metrics_line(
                    tag, text,
                    {{"elapsed_s", last_report.elapsed_s},
                     {"results", static_cast<double>(last_report.results.size())}},
                    scsq::exec::registry_json(scsq.machine()))
             << scsq::exec::run_lines(scsq.engine(), last_report, tag) << std::flush;
    };
    const auto run_pending = [&](std::string& pending) {
      const std::string tag = "\"statement\":" + std::to_string(statements_run);
      std::vector<scsq::scsql::Statement> statements;
      try {
        statements = scsq::scsql::parse_script(pending);
      } catch (const scsq::scsql::Error& e) {
        record << scsq::exec::error_line(tag, pending, e) << std::flush;
        throw;
      }
      for (const auto& statement : statements) {
        if (statement.function) {
          scsq.engine().register_function(statement.function);
          std::printf("-- registered function '%s'\n", statement.function->name.c_str());
          continue;
        }
        run_statement(statement, "\"statement\":" + std::to_string(statements_run++));
      }
      pending.clear();
    };

    // Line-based pass so shell commands (\metrics, \explain analyze,
    // \profile) can punctuate the SCSQL statements; the text between
    // commands goes to the parser unchanged.
    std::string pending;
    // Statement text being collected for \explain analyze (multi-line,
    // up to the terminating ';'); empty = not collecting.
    std::string explain_pending;
    std::istringstream lines(source);
    std::string line;
    while (std::getline(lines, line)) {
      const std::string t = trimmed(line);
      if (!explain_pending.empty()) {
        explain_pending += line;
        explain_pending += '\n';
        if (t.find(';') == std::string::npos) continue;
        run_pending(explain_pending);
        print_profile(scsq, have_report ? &last_report : nullptr);
        explain_pending.clear();
        continue;
      }
      if (t.rfind("\\metrics", 0) == 0 &&
          (t.size() == 8 || t[8] == ' ' || t[8] == '\t' || t[8] == '>')) {
        run_pending(pending);
        std::string filter, out_path;
        parse_metrics_args(t.substr(8), filter, out_path);
        print_metrics(scsq, have_report ? &last_report : nullptr, filter, out_path);
        continue;
      }
      if (t == "\\profile") {
        run_pending(pending);
        print_profile(scsq, have_report ? &last_report : nullptr);
        continue;
      }
      if (t.rfind("\\watch", 0) == 0 &&
          (t.size() == 6 || t[6] == ' ' || t[6] == '\t')) {
        run_pending(pending);
        std::istringstream args(t.substr(6));
        std::string word;
        args >> word;
        if (word == "off" || word == "0") {
          scsq.engine().set_sample_interval(0.0);
          watch_on = false;
          std::printf("-- watch off\n");
          continue;
        }
        const auto interval = scsq::exec::parse_interval(word);
        if (!interval) {
          std::printf("-- usage: \\watch <interval_s> [series] | \\watch off"
                      " (interval: a decimal number of at least 1e-6 s)\n");
          continue;
        }
        std::string series;
        args >> series;
        if (!series.empty()) watch_series = series;
        scsq.engine().set_sample_interval(*interval);
        watch_on = true;
        std::printf("-- watch on: %g s windows, series '%s'\n", *interval,
                    watch_series.c_str());
        continue;
      }
      if (t.rfind("\\monitors", 0) == 0 && (t.size() == 9 || t[9] == ' ')) {
        run_pending(pending);
        const auto monitors = scsq.engine().monitors();
        if (monitors.empty()) {
          std::printf("-- no monitors registered\n");
          continue;
        }
        for (const auto& m : monitors) {
          std::printf("-- monitor %s (%zu alert(s) last statement): %s\n",
                      m.name.c_str(), m.alerts, m.query.c_str());
        }
        continue;
      }
      if (t.rfind("\\unmonitor", 0) == 0 && (t.size() == 10 || t[10] == ' ')) {
        run_pending(pending);
        const std::string name = trimmed(t.substr(10));
        if (name.empty()) {
          for (const auto& m : scsq.engine().monitors()) {
            scsq.engine().unregister_monitor(m.name);
          }
          std::printf("-- all monitors removed\n");
        } else if (scsq.engine().unregister_monitor(name)) {
          std::printf("-- monitor %s removed\n", name.c_str());
        } else {
          std::printf("-- no monitor named '%s'\n", name.c_str());
        }
        continue;
      }
      if (t.rfind("\\monitor", 0) == 0 && (t.size() == 8 || t[8] == ' ')) {
        run_pending(pending);
        const std::string query = trimmed(t.substr(8));
        if (query.empty()) {
          std::printf("-- usage: \\monitor <introspection query>\n");
          continue;
        }
        try {
          const std::string name = scsq.engine().register_monitor(query);
          std::printf("-- monitor %s registered: %s\n", name.c_str(), query.c_str());
          if (!scsq.engine().sampler().enabled()) {
            std::printf("-- note: sampler is off; arm it with \\watch <interval_s> "
                        "(or SCSQ_SAMPLE_INTERVAL) for the monitor to fire\n");
          }
        } catch (const scsq::scsql::Error& e) {
          std::printf("-- monitor rejected: %s\n", e.what());
        }
        continue;
      }
      if (t.rfind("\\explain analyze", 0) == 0) {
        run_pending(pending);
        std::string stmt = trimmed(t.substr(16));
        if (stmt.empty()) {
          std::printf("-- usage: \\explain analyze <query>;\n");
          continue;
        }
        if (stmt.find(';') == std::string::npos) {
          explain_pending = stmt + '\n';  // keep collecting lines
          continue;
        }
        run_pending(stmt);
        print_profile(scsq, have_report ? &last_report : nullptr);
        continue;
      }
      pending += line;
      pending += '\n';
    }
    if (!explain_pending.empty()) {
      run_pending(explain_pending);
      print_profile(scsq, have_report ? &last_report : nullptr);
    }
    run_pending(pending);
    if (!settings.trace_path.empty()) {
      std::ofstream out(settings.trace_path);
      trace.write_json(out);
      std::printf("-- trace (%zu events) written to %s\n", trace.size(),
                  settings.trace_path.c_str());
    }
  } catch (const scsq::scsql::Error& e) {
    std::fprintf(stderr, "scsql error: %s\n", e.what());
    return 1;
  }
  return 0;
}
