//===--- Recorder.cpp - Deterministic flight recorder ---------------------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "obs/Recorder.h"

#include <cmath>
#include <cstdio>

using namespace syrust;
using namespace syrust::obs;

namespace {

/// Renders a double as a JSON number token: integral values print as
/// integers (the common case for microsecond timestamps and counters),
/// everything else with enough digits to round-trip. Deterministic for a
/// fixed input on a fixed platform, which is all golden traces need.
std::string numToken(double V) {
  char Buf[40];
  if (std::floor(V) == V && std::fabs(V) < 9.0e15)
    std::snprintf(Buf, sizeof(Buf), "%lld", static_cast<long long>(V));
  else
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

} // namespace

//===----------------------------------------------------------------------===//
// ArgList
//===----------------------------------------------------------------------===//

ArgList &ArgList::add(std::string Key, const std::string &V) {
  Items.emplace_back(std::move(Key), "\"" + json::escape(V) + "\"");
  return *this;
}

ArgList &ArgList::add(std::string Key, const char *V) {
  return add(std::move(Key), std::string(V));
}

ArgList &ArgList::add(std::string Key, int64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%lld", static_cast<long long>(V));
  Items.emplace_back(std::move(Key), Buf);
  return *this;
}

ArgList &ArgList::add(std::string Key, uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%llu",
                static_cast<unsigned long long>(V));
  Items.emplace_back(std::move(Key), Buf);
  return *this;
}

ArgList &ArgList::add(std::string Key, double V) {
  Items.emplace_back(std::move(Key), numToken(V));
  return *this;
}

ArgList &ArgList::add(std::string Key, bool V) {
  Items.emplace_back(std::move(Key), V ? "true" : "false");
  return *this;
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

void Tracer::bindClock(const SimClock *C) {
  if (!C && Clock)
    LastSeconds = Clock->now();
  Clock = C;
}

double Tracer::wallSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       WallStart)
      .count();
}

void Tracer::push(const char *Name, const char *Cat, char Phase,
                  double TsSeconds, double DurSeconds,
                  const ArgList &Args) {
  std::string E;
  E.reserve(96);
  E += "{\"name\":\"";
  E += json::escape(Name);
  E += "\",\"cat\":\"";
  E += json::escape(Cat);
  E += "\",\"ph\":\"";
  E += Phase;
  E += "\",\"ts\":";
  E += numToken(TsSeconds * 1e6);
  if (Phase == 'X') {
    E += ",\"dur\":";
    E += numToken(DurSeconds * 1e6);
  }
  if (Phase == 'i')
    E += ",\"s\":\"t\""; // thread-scoped instant
  E += ",\"pid\":0,\"tid\":";
  E += numToken(Lane);
  if (!Args.empty() || CaptureWall) {
    E += ",\"args\":{";
    bool First = true;
    for (const auto &[K, V] : Args.items()) {
      if (!First)
        E += ',';
      First = false;
      E += "\"" + json::escape(K) + "\":" + V;
    }
    if (CaptureWall) {
      if (!First)
        E += ',';
      E += "\"wall_us\":" + numToken(wallSeconds() * 1e6);
    }
    E += '}';
  }
  E += '}';
  Events.push_back(std::move(E));
}

void Tracer::begin(const char *Name, const char *Cat, ArgList Args) {
  push(Name, Cat, 'B', now(), 0, Args);
}

void Tracer::end(const char *Name, const char *Cat, ArgList Args) {
  push(Name, Cat, 'E', now(), 0, Args);
}

void Tracer::complete(const char *Name, const char *Cat,
                      double StartSeconds, double DurSeconds,
                      ArgList Args) {
  push(Name, Cat, 'X', StartSeconds, DurSeconds, Args);
}

void Tracer::instant(const char *Name, const char *Cat, ArgList Args) {
  push(Name, Cat, 'i', now(), 0, Args);
}

std::string Tracer::chromeJson() const {
  std::string Out;
  Out.reserve(64 + Events.size() * 96);
  Out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (size_t I = 0; I < Events.size(); ++I) {
    if (I)
      Out += ',';
    Out += '\n';
    Out += Events[I];
  }
  Out += "\n]}\n";
  return Out;
}

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

Histogram::Histogram(double FirstEdge, double Factor, size_t NumEdges) {
  Edges.reserve(NumEdges);
  double E = FirstEdge;
  for (size_t I = 0; I < NumEdges; ++I, E *= Factor)
    Edges.push_back(E);
  Counts.assign(NumEdges + 1, 0);
}

void Histogram::observe(double X) {
  ++Total;
  Sum += X;
  for (size_t I = 0; I < Edges.size(); ++I)
    if (X <= Edges[I]) {
      ++Counts[I];
      return;
    }
  ++Counts.back(); // Overflow bucket.
}

//===----------------------------------------------------------------------===//
// MetricsRegistry
//===----------------------------------------------------------------------===//

namespace {

/// The slot named \p Name, created (and its name copied) on first use.
template <typename T, typename... CtorArgs>
T &lookup(MetricsRegistry::ByName<T> &Map, std::string_view Name,
          CtorArgs... Args) {
  auto It = Map.find(Name);
  if (It == Map.end())
    It = Map.emplace(std::string(Name), std::make_unique<T>(Args...)).first;
  return *It->second;
}

} // namespace

Counter &MetricsRegistry::counter(std::string_view Name) {
  return lookup(Counters, Name);
}

Gauge &MetricsRegistry::gauge(std::string_view Name) {
  return lookup(Gauges, Name);
}

Histogram &MetricsRegistry::histogram(std::string_view Name,
                                      double FirstEdge, double Factor,
                                      size_t NumEdges) {
  return lookup(Histograms, Name, FirstEdge, Factor, NumEdges);
}

json::Value MetricsRegistry::snapshotValue(double AtSeconds) const {
  json::Value Line = json::Value::object();
  Line.set("t", json::Value::number(AtSeconds));
  if (!Counters.empty()) {
    json::Value C = json::Value::object();
    for (const auto &[Name, Ctr] : Counters)
      C.set(Name,
            json::Value::integer(static_cast<int64_t>(Ctr->value())));
    Line.set("counters", std::move(C));
  }
  if (!Gauges.empty()) {
    json::Value G = json::Value::object();
    for (const auto &[Name, Gg] : Gauges)
      G.set(Name, json::Value::number(Gg->value()));
    Line.set("gauges", std::move(G));
  }
  if (!Histograms.empty()) {
    json::Value H = json::Value::object();
    for (const auto &[Name, Hist] : Histograms) {
      json::Value One = json::Value::object();
      One.set("count",
              json::Value::integer(static_cast<int64_t>(Hist->count())));
      One.set("sum", json::Value::number(Hist->sum()));
      json::Value Edges = json::Value::array();
      for (size_t I = 0; I < Hist->numEdges(); ++I)
        Edges.push(json::Value::number(Hist->upperEdge(I)));
      One.set("edges", std::move(Edges));
      json::Value Buckets = json::Value::array();
      for (size_t I = 0; I <= Hist->numEdges(); ++I)
        Buckets.push(json::Value::integer(
            static_cast<int64_t>(Hist->bucketCount(I))));
      One.set("buckets", std::move(Buckets));
      H.set(Name, std::move(One));
    }
    Line.set("histograms", std::move(H));
  }
  return Line;
}

void MetricsRegistry::snapshot(double AtSeconds) {
  Lines.push_back(snapshotValue(AtSeconds).dump());
}

std::string MetricsRegistry::jsonl() const {
  std::string Out;
  for (const std::string &L : Lines) {
    Out += L;
    Out += '\n';
  }
  return Out;
}
