/**
 * @file
 * The serve daemon, end to end: JSON layer, HTTP parsing, and a real
 * HttpServer+SimService on an ephemeral port driven through raw
 * POSIX sockets — simulate/sweep round trips bit-identical to direct
 * library calls, result-cache visibility, admission control (429),
 * oversized bodies (413), deadlines (503), malformed input (400),
 * concurrent clients, and graceful drain.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "mfusim/core/error.hh"
#include "mfusim/core/faultpoint.hh"
#include "mfusim/harness/spec_parse.hh"
#include "mfusim/obs/req_trace.hh"
#include "mfusim/harness/sweep.hh"
#include "mfusim/harness/trace_library.hh"
#include "mfusim/serve/http.hh"
#include "mfusim/serve/json.hh"
#include "mfusim/serve/result_cache.hh"
#include "mfusim/serve/server.hh"
#include "mfusim/serve/sim_service.hh"

// Tests that need a probe to actually fire cannot run when the
// probes are compiled down to constant false.
#ifdef MFUSIM_NO_FAULT_INJECTION
#define SKIP_WITHOUT_FAULT_INJECTION() \
    GTEST_SKIP() << "built with MFUSIM_NO_FAULT_INJECTION"
#else
#define SKIP_WITHOUT_FAULT_INJECTION() (void)0
#endif

namespace mfusim
{
namespace
{

// ----------------------------------------------------------------- JSON

TEST(Json, ParseRoundTrip)
{
    const Json v = parseJson(
        R"({"a": 1, "b": [true, null, "x\n"], "c": {"d": 2.5}})");
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.find("a")->asNumber(), 1.0);
    EXPECT_TRUE(v.find("b")->items()[0].asBool());
    EXPECT_TRUE(v.find("b")->items()[1].isNull());
    EXPECT_EQ(v.find("b")->items()[2].asString(), "x\n");
    EXPECT_EQ(v.find("c")->find("d")->asNumber(), 2.5);
    // Dump re-parses to the same structure.
    const Json again = parseJson(v.dump());
    EXPECT_EQ(again.dump(), v.dump());
}

TEST(Json, MalformedInputsThrow400)
{
    for (const char *bad :
         { "", "{", "[1,", "{\"a\" 1}", "tru", "{\"a\":01x}",
           "\"unterminated", "{\"a\":1} trailing", "[1 2]" }) {
        try {
            parseJson(bad);
            FAIL() << "no throw for: " << bad;
        } catch (const ServeError &e) {
            EXPECT_EQ(e.httpStatus(), 400) << bad;
        }
    }
}

TEST(Json, DepthCapStopsHostileNesting)
{
    std::string hostile(2000, '[');
    hostile += std::string(2000, ']');
    EXPECT_THROW(parseJson(hostile), ServeError);
}

TEST(Json, DiagnosticNamesLineAndColumn)
{
    try {
        parseJson("{\n  \"a\": bogus\n}");
        FAIL();
    } catch (const ServeError &e) {
        EXPECT_NE(std::string(e.what()).find("line 2"),
                  std::string::npos)
            << e.what();
    }
}

// ----------------------------------------------------------------- HTTP

TEST(HttpParse, RequestHead)
{
    HttpRequest req;
    std::string error;
    ASSERT_TRUE(parseRequestHead("POST /v1/simulate?x=1 HTTP/1.1\r\n"
                                 "Host: localhost\r\n"
                                 "Content-Type: application/json\r\n",
                                 &req, &error))
        << error;
    EXPECT_EQ(req.method, "POST");
    EXPECT_EQ(req.target, "/v1/simulate?x=1");
    EXPECT_EQ(req.path, "/v1/simulate");
    EXPECT_EQ(req.header("content-type"), "application/json");
    EXPECT_EQ(req.header("CONTENT-TYPE"), "application/json");
    EXPECT_TRUE(req.keepAlive());
}

TEST(HttpParse, RejectsGarbage)
{
    HttpRequest req;
    std::string error;
    EXPECT_FALSE(parseRequestHead("", &req, &error));
    EXPECT_FALSE(parseRequestHead("GETHTTP/1.1", &req, &error));
    EXPECT_FALSE(parseRequestHead("GET / SPDY/3", &req, &error));
    EXPECT_FALSE(
        parseRequestHead("GET / HTTP/1.1\r\nbadheader\r\n", &req,
                         &error));
}

TEST(HttpParse, ConnectionClose)
{
    HttpRequest req;
    std::string error;
    ASSERT_TRUE(parseRequestHead(
        "GET / HTTP/1.1\r\nConnection: close\r\n", &req, &error));
    EXPECT_FALSE(req.keepAlive());
}

TEST(HttpSerialize, ResponseWireFormat)
{
    HttpResponse resp(200, "application/json", "{}");
    const std::string wire = resp.serialize(true);
    EXPECT_NE(wire.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
    EXPECT_NE(wire.find("Content-Length: 2\r\n"), std::string::npos);
    EXPECT_NE(wire.find("Connection: keep-alive\r\n"),
              std::string::npos);
    EXPECT_EQ(wire.substr(wire.size() - 2), "{}");
}

// --------------------------------------------------- raw-socket client

/** Connect to 127.0.0.1:port; returns the fd (closes in dtor). */
class ClientSocket
{
  public:
    explicit ClientSocket(std::uint16_t port)
    {
        fd_ = socket(AF_INET, SOCK_STREAM, 0);
        struct sockaddr_in addr;
        std::memset(&addr, 0, sizeof(addr));
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        if (connect(fd_, reinterpret_cast<struct sockaddr *>(&addr),
                    sizeof(addr)) != 0) {
            close(fd_);
            fd_ = -1;
        }
    }
    ~ClientSocket()
    {
        if (fd_ >= 0)
            close(fd_);
    }
    int fd() const { return fd_; }
    bool ok() const { return fd_ >= 0; }

    bool sendAll(const std::string &data)
    {
        return writeAll(fd_, data);
    }

    /** Read one response (headers + Content-Length body). */
    std::string
    readResponse()
    {
        std::string buffer;
        char chunk[4096];
        std::size_t headEnd = std::string::npos;
        while (headEnd == std::string::npos) {
            const ssize_t got = recv(fd_, chunk, sizeof(chunk), 0);
            if (got <= 0)
                return buffer;
            buffer.append(chunk, std::size_t(got));
            headEnd = buffer.find("\r\n\r\n");
        }
        // Parse Content-Length to know when the body is complete.
        std::size_t contentLength = 0;
        const std::size_t cl = buffer.find("Content-Length: ");
        if (cl != std::string::npos && cl < headEnd)
            contentLength = std::size_t(
                std::strtoull(buffer.c_str() + cl + 16, nullptr, 10));
        while (buffer.size() < headEnd + 4 + contentLength) {
            const ssize_t got = recv(fd_, chunk, sizeof(chunk), 0);
            if (got <= 0)
                break;
            buffer.append(chunk, std::size_t(got));
        }
        return buffer;
    }

  private:
    int fd_ = -1;
};

struct Response
{
    int status = 0;
    std::string body;
    std::string raw;
};

Response
parseResponse(const std::string &wire)
{
    Response r;
    r.raw = wire;
    if (wire.rfind("HTTP/1.1 ", 0) == 0)
        r.status = std::atoi(wire.c_str() + 9);
    const std::size_t headEnd = wire.find("\r\n\r\n");
    if (headEnd != std::string::npos)
        r.body = wire.substr(headEnd + 4);
    return r;
}

/** One-shot request against a local server. */
Response
roundTrip(std::uint16_t port, const std::string &method,
          const std::string &path, const std::string &body = "",
          const std::string &extraHeaders = "")
{
    ClientSocket sock(port);
    if (!sock.ok())
        return Response{};
    std::string request = method + " " + path + " HTTP/1.1\r\n" +
        "Host: localhost\r\nConnection: close\r\n" + extraHeaders;
    if (!body.empty())
        request +=
            "Content-Length: " + std::to_string(body.size()) + "\r\n";
    request += "\r\n" + body;
    sock.sendAll(request);
    return parseResponse(sock.readResponse());
}

// ------------------------------------------------------- e2e fixture

/** An HttpServer+SimService on an ephemeral port, torn down after. */
class ServeE2E : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ResultCache::instance().clear();
        ServeOptions opts;
        opts.port = 0;          // ephemeral: tests never collide
        opts.workers = 4;
        opts.deadlineMs = 10000;
        opts.maxBodyBytes = 64 * 1024;
        service_ = std::make_unique<SimService>(
            SimServiceOptions{ "test", 64 });
        server_ = std::make_unique<HttpServer>(
            opts, [this](const HttpRequest &request,
                         unsigned budgetMs) {
                return service_->handle(request, budgetMs);
            });
        service_->setServer(server_.get());
        // The production wiring: cache hits answered on the reactor.
        server_->setFastHandler(
            [this](const HttpRequest &request, HttpResponse *out) {
                return service_->tryFastAnswer(request, out);
            });
        server_->start();
        ASSERT_NE(server_->port(), 0);
    }

    void
    TearDown() override
    {
        server_->stop();
        ResultCache::instance().clear();
    }

    std::uint16_t port() const { return server_->port(); }

    std::unique_ptr<SimService> service_;
    std::unique_ptr<HttpServer> server_;
};

TEST_F(ServeE2E, Healthz)
{
    const Response r = roundTrip(port(), "GET", "/healthz");
    EXPECT_EQ(r.status, 200);
    const Json body = parseJson(r.body);
    EXPECT_EQ(body.find("status")->asString(), "ok");
    EXPECT_EQ(body.find("version")->asString(), "test");
}

TEST_F(ServeE2E, SimulateBitIdenticalToDirectRunAllMachines)
{
    // The acceptance criterion: POST /v1/simulate responses must be
    // bit-identical to the equivalent direct invocation for all six
    // simulator families.
    const std::vector<std::string> machines{
        "simple",   "cray",  "cdc",
        "tomasulo", "seq:2", "ruu:4:50",
    };
    const std::vector<int> loops{ 1, 5, 9, 14 };
    const MachineConfig cfg = configM11BR2();

    for (const std::string &machine : machines) {
        for (const int loop : loops) {
            const Response r = roundTrip(
                port(), "POST", "/v1/simulate",
                "{\"loop\": " + std::to_string(loop) +
                    ", \"machine\": \"" + machine +
                    "\", \"config\": \"M11BR2\"}");
            ASSERT_EQ(r.status, 200)
                << machine << " LL" << loop << ": " << r.body;
            const Json body = parseJson(r.body);

            auto sim = parseMachineSpec(machine, cfg);
            const SimResult direct = sim->run(
                TraceLibrary::instance().decoded(loop, cfg));
            EXPECT_EQ(body.find("instructions")->asNumber(),
                      double(direct.instructions))
                << machine << " LL" << loop;
            EXPECT_EQ(body.find("cycles")->asNumber(),
                      double(direct.cycles))
                << machine << " LL" << loop;
            EXPECT_EQ(body.find("rate")->asNumber(),
                      direct.issueRate())
                << machine << " LL" << loop;
            EXPECT_EQ(body.find("machine")->asString(), sim->name());
            EXPECT_EQ(body.find("schema")->asString(),
                      "mfusim-serve-v1");
        }
    }
}

TEST_F(ServeE2E, RepeatedRequestServedFromCacheAndCounted)
{
    const std::string request =
        R"({"loop": 5, "machine": "cray", "config": "M5BR2"})";
    const Response first =
        roundTrip(port(), "POST", "/v1/simulate", request);
    ASSERT_EQ(first.status, 200) << first.body;
    EXPECT_FALSE(parseJson(first.body).find("cached")->asBool());

    const Response second =
        roundTrip(port(), "POST", "/v1/simulate", request);
    ASSERT_EQ(second.status, 200);
    const Json secondBody = parseJson(second.body);
    EXPECT_TRUE(secondBody.find("cached")->asBool());
    EXPECT_EQ(secondBody.find("cycles")->asNumber(),
              parseJson(first.body).find("cycles")->asNumber());

    // The hit is observable through /metrics (the acceptance
    // criterion's "hit counter observable" clause).
    const Response metrics = roundTrip(port(), "GET", "/metrics");
    ASSERT_EQ(metrics.status, 200);
    // The sample line (not the "# TYPE" comment) carries the labels.
    const std::size_t at =
        metrics.body.find("mfusim_result_cache_hits_total{");
    ASSERT_NE(at, std::string::npos) << metrics.body;
    const std::string line = metrics.body.substr(
        at, metrics.body.find('\n', at) - at);
    EXPECT_EQ(line.substr(line.rfind(' ') + 1), "1") << line;
}

TEST_F(ServeE2E, UnrolledAndVectorLoopSpecsWork)
{
    for (const char *spec : { "\"1x4\"", "\"7v\"" }) {
        const Response r = roundTrip(
            port(), "POST", "/v1/simulate",
            std::string("{\"loop\": ") + spec +
                ", \"machine\": \"cray\"}");
        EXPECT_EQ(r.status, 200) << spec << ": " << r.body;
    }
}

TEST_F(ServeE2E, SweepMatchesDirectParallelRates)
{
    const Response r = roundTrip(
        port(), "POST", "/v1/sweep",
        R"({"machine": "seq:2", "config": "M5BR5",
            "loops": [1, 2, 3, 8, 12]})");
    ASSERT_EQ(r.status, 200) << r.body;
    const Json body = parseJson(r.body);
    const auto &rows = body.find("results")->items();
    ASSERT_EQ(rows.size(), 5u);

    const MachineConfig cfg = configM5BR5();
    const SimFactory factory = [](const MachineConfig &c) {
        return parseMachineSpec("seq:2", c);
    };
    const std::vector<double> direct = parallelPerLoopRates(
        factory, { 1, 2, 3, 8, 12 }, cfg);
    for (std::size_t i = 0; i < rows.size(); ++i)
        EXPECT_EQ(rows[i].find("rate")->asNumber(), direct[i])
            << "row " << i;
}

TEST_F(ServeE2E, BatchedSweepManyMachinesOneRequest)
{
    // A 'machine' list sweeps every variant in one request: the
    // variants run over each loop in one batch and must reproduce
    // the per-variant scalar sweep.
    const Response r = roundTrip(
        port(), "POST", "/v1/sweep",
        R"({"machine": ["seq:2", "seq:4", "seq:4,1bus"],
            "config": "M5BR5", "loops": [1, 3, 12]})");
    ASSERT_EQ(r.status, 200) << r.body;
    const Json body = parseJson(r.body);
    ASSERT_NE(body.find("batch_size"), nullptr);
    EXPECT_EQ(body.find("batch_size")->asNumber(), 3.0);
    ASSERT_NE(body.find("machines"), nullptr);
    const auto &machines = body.find("machines")->items();
    ASSERT_EQ(machines.size(), 3u);

    const MachineConfig cfg = configM5BR5();
    const std::vector<std::string> specs = { "seq:2", "seq:4",
                                             "seq:4,1bus" };
    for (std::size_t v = 0; v < specs.size(); ++v) {
        const SimFactory factory = [&](const MachineConfig &c) {
            return parseMachineSpec(specs[v], c);
        };
        const std::vector<double> direct =
            parallelPerLoopRates(factory, { 1, 3, 12 }, cfg);
        const auto &rows = machines[v].find("results")->items();
        ASSERT_EQ(rows.size(), 3u) << specs[v];
        for (std::size_t i = 0; i < rows.size(); ++i)
            EXPECT_EQ(rows[i].find("rate")->asNumber(), direct[i])
                << specs[v] << " row " << i;
    }

    // The batch telemetry reaches /metrics: batches and lanes, with
    // no lane-kind split (every lane runs alone).
    const Response metrics = roundTrip(port(), "GET", "/metrics");
    ASSERT_EQ(metrics.status, 200);
    EXPECT_NE(metrics.body.find("mfusim_sweep_batches_total"),
              std::string::npos)
        << metrics.body;
    EXPECT_NE(metrics.body.find("mfusim_sweep_batch_size_total"),
              std::string::npos)
        << metrics.body;
    EXPECT_EQ(metrics.body.find("mfusim_sweep_batch_lockstep"),
              std::string::npos)
        << metrics.body;
    EXPECT_EQ(metrics.body.find("mfusim_sweep_batch_scalar"),
              std::string::npos)
        << metrics.body;
}

TEST_F(ServeE2E, BadInputsMapToFourHundreds)
{
    // Malformed JSON.
    EXPECT_EQ(roundTrip(port(), "POST", "/v1/simulate", "{nope")
                  .status,
              400);
    // Unknown machine / config / loop.
    EXPECT_EQ(roundTrip(port(), "POST", "/v1/simulate",
                        R"({"loop": 5, "machine": "pdp11"})")
                  .status,
              400);
    EXPECT_EQ(roundTrip(
                  port(), "POST", "/v1/simulate",
                  R"({"loop": 5, "machine": "cray", "config": "Z"})")
                  .status,
              400);
    EXPECT_EQ(roundTrip(port(), "POST", "/v1/simulate",
                        R"({"loop": 99, "machine": "cray"})")
                  .status,
              400);
    // Numeric machine-spec fields out of range, negative or past
    // 32 bits: a config error, never a wrapped or huge machine.
    for (const char *body :
         { R"({"loop": 5, "machine": "ooo:99999999999"})",
           R"({"loop": 5, "machine": "ruu:4:-1"})",
           R"({"loop": 5, "machine": "tomasulo:4294967297:1"})" }) {
        const Response bad =
            roundTrip(port(), "POST", "/v1/simulate", body);
        EXPECT_EQ(bad.status, 400) << body << " -> " << bad.body;
        EXPECT_NE(bad.body.find("bad numeric field"), std::string::npos)
            << body << " -> " << bad.body;
    }
    // Missing fields.
    EXPECT_EQ(roundTrip(port(), "POST", "/v1/simulate",
                        R"({"machine": "cray"})")
                  .status,
              400);
    // Sweep with a bad loop list.
    EXPECT_EQ(roundTrip(port(), "POST", "/v1/sweep",
                        R"({"machine": "cray", "loops": [1, 99]})")
                  .status,
              400);
    EXPECT_EQ(roundTrip(port(), "POST", "/v1/sweep",
                        R"({"machine": "cray", "loops": []})")
                  .status,
              400);
    // Unknown route and wrong method.
    EXPECT_EQ(roundTrip(port(), "GET", "/nope").status, 404);
    EXPECT_EQ(roundTrip(port(), "GET", "/v1/simulate").status, 405);
    const Response errBody =
        roundTrip(port(), "POST", "/v1/simulate", "{nope");
    const Json err = parseJson(errBody.body);
    EXPECT_EQ(err.find("status")->asNumber(), 400.0);
    EXPECT_FALSE(err.find("error")->asString().empty());
}

TEST_F(ServeE2E, BranchModelOnSimpleIs400)
{
    EXPECT_EQ(roundTrip(port(), "POST", "/v1/simulate",
                        R"({"loop": 5, "machine": "simple,btfn"})")
                  .status,
              400);
    EXPECT_EQ(roundTrip(port(), "POST", "/v1/sweep",
                        R"({"machine": ["cray", "simple,oracle"]})")
                  .status,
              400);
}

TEST_F(ServeE2E, TwoBranchModelsAre400)
{
    EXPECT_EQ(roundTrip(port(), "POST", "/v1/simulate",
                        R"({"loop": 5, "machine": "ooo:4,btfn,oracle"})")
                  .status,
              400);
    EXPECT_EQ(
        roundTrip(port(), "POST", "/v1/simulate",
                  R"({"loop": 5, "machine": "ooo:4,pred=btfn,pred=2bit"})")
            .status,
        400);
}

TEST_F(ServeE2E, BranchModelWithPredictorFieldIs400)
{
    EXPECT_EQ(roundTrip(port(), "POST", "/v1/simulate",
                        R"({"loop": 7, "machine": "ooo:4,pred=btfn",
                            "predictor": "2bit"})")
                  .status,
              400);
    EXPECT_EQ(roundTrip(port(), "POST", "/v1/sweep",
                        R"({"machine": "ruu:4:50,oracle",
                            "predictor": "2bit", "loops": [1]})")
                  .status,
              400);
    // Either one alone is fine.
    EXPECT_EQ(roundTrip(port(), "POST", "/v1/simulate",
                        R"({"loop": 7, "machine": "ooo:4",
                            "predictor": "2bit"})")
                  .status,
              200);
}

TEST_F(ServeE2E, OversizedBodyIs413)
{
    // 64 KiB limit in the fixture; send a Content-Length beyond it.
    const std::string body(70 * 1024, 'x');
    const Response r =
        roundTrip(port(), "POST", "/v1/simulate", body);
    EXPECT_EQ(r.status, 413);
}

TEST_F(ServeE2E, DeadlineZeroIs503)
{
    const Response r = roundTrip(
        port(), "POST", "/v1/simulate",
        R"({"loop": 5, "machine": "cray"})", "X-Deadline-Ms: 0\r\n");
    EXPECT_EQ(r.status, 503);
}

TEST_F(ServeE2E, ConcurrentClientsAllSucceedAndAgree)
{
    constexpr int kClients = 8;
    std::vector<std::thread> threads;
    std::vector<Response> responses(kClients);
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([this, c, &responses] {
            responses[std::size_t(c)] = roundTrip(
                port(), "POST", "/v1/simulate",
                R"({"loop": 7, "machine": "ooo:4", "config": "M11BR5"})");
        });
    }
    for (std::thread &t : threads)
        t.join();
    ASSERT_EQ(responses[0].status, 200) << responses[0].body;
    const double cycles =
        parseJson(responses[0].body).find("cycles")->asNumber();
    for (int c = 1; c < kClients; ++c) {
        ASSERT_EQ(responses[std::size_t(c)].status, 200);
        EXPECT_EQ(parseJson(responses[std::size_t(c)].body)
                      .find("cycles")
                      ->asNumber(),
                  cycles)
            << "client " << c;
    }
}

TEST_F(ServeE2E, KeepAliveServesSequentialRequests)
{
    ClientSocket sock(port());
    ASSERT_TRUE(sock.ok());
    const std::string body = R"({"loop": 2, "machine": "simple"})";
    for (int i = 0; i < 3; ++i) {
        std::string request =
            "POST /v1/simulate HTTP/1.1\r\nHost: x\r\n"
            "Content-Length: " + std::to_string(body.size()) +
            "\r\n\r\n" + body;
        ASSERT_TRUE(sock.sendAll(request));
        const Response r = parseResponse(sock.readResponse());
        EXPECT_EQ(r.status, 200) << "request " << i;
    }
}

TEST_F(ServeE2E, MetricsExposePrometheusFamilies)
{
    roundTrip(port(), "POST", "/v1/simulate",
              R"({"loop": 1, "machine": "simple"})");
    const Response r = roundTrip(port(), "GET", "/metrics");
    ASSERT_EQ(r.status, 200);
    for (const char *family :
         { "# TYPE mfusim_http_requests_total counter",
           "mfusim_http_simulate_requests_total",
           "mfusim_http_simulate_latency_ms_bucket",
           "mfusim_http_connections_accepted_total",
           "mfusim_http_queue_depth",
           "mfusim_result_cache_misses_total" }) {
        EXPECT_NE(r.body.find(family), std::string::npos)
            << "missing: " << family << "\n" << r.body;
    }
}

TEST_F(ServeE2E, ReactorFastPathServesCacheHitsBitIdentically)
{
    const std::string body = R"({"loop": 3, "machine": "cray"})";
    // First request misses the cache and computes on a worker.
    const Response first =
        roundTrip(port(), "POST", "/v1/simulate", body);
    ASSERT_EQ(first.status, 200);
    EXPECT_EQ(server_->stats().fastpath, 0u);

    // Repeats are answered inline by the reactor from the cache.
    const Response second =
        roundTrip(port(), "POST", "/v1/simulate", body);
    const Response third =
        roundTrip(port(), "POST", "/v1/simulate", body);
    ASSERT_EQ(second.status, 200);
    EXPECT_EQ(second.body, third.body);
    EXPECT_GE(server_->stats().fastpath, 2u);

    // The inline answer differs from the computed one only in the
    // cached flag; every simulation field is bit-identical.
    const Json a = parseJson(first.body);
    const Json b = parseJson(second.body);
    EXPECT_FALSE(a.find("cached")->asBool());
    EXPECT_TRUE(b.find("cached")->asBool());
    EXPECT_EQ(a.find("cycles")->asNumber(),
              b.find("cycles")->asNumber());
    EXPECT_EQ(a.find("instructions")->asNumber(),
              b.find("instructions")->asNumber());
    EXPECT_EQ(a.find("rate_str")->asString(),
              b.find("rate_str")->asString());
}

// ------------------------------------------- transport-level behaviour

TEST(HttpFastPath, FastHandlerAnswersWhileWorkersAreWedged)
{
    // One worker, wedged on a slow request: a fast-path route must
    // still answer from the reactor thread, and must not consume a
    // queue slot or a worker.
    std::atomic<bool> release{ false };
    ServeOptions opts;
    opts.port = 0;
    opts.workers = 1;
    opts.idleTimeoutMs = 200;
    HttpServer server(opts, [&](const HttpRequest &, unsigned) {
        while (!release.load())
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
        return HttpResponse(200, "text/plain", "slow");
    });
    server.setFastHandler(
        [](const HttpRequest &request, HttpResponse *out) {
            if (request.path != "/fast")
                return false;
            *out = HttpResponse(200, "text/plain", "inline");
            return true;
        });
    server.start();

    ClientSocket slow(server.port());
    ASSERT_TRUE(slow.ok());
    slow.sendAll("GET /slow HTTP/1.1\r\nHost: x\r\n\r\n");
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    ClientSocket fast(server.port());
    ASSERT_TRUE(fast.ok());
    fast.sendAll("GET /fast HTTP/1.1\r\nHost: x\r\n"
                 "Connection: close\r\n\r\n");
    const Response r = parseResponse(fast.readResponse());
    EXPECT_EQ(r.status, 200);
    EXPECT_EQ(r.body, "inline");
    EXPECT_EQ(server.stats().fastpath, 1u);

    release.store(true);
    const Response s = parseResponse(slow.readResponse());
    EXPECT_EQ(s.status, 200);
    server.stop();
}

TEST(HttpServerAdmission, QueueOverflowAnswers429)
{
    // A deliberately slow handler with one worker and a queue depth
    // of 1: the third concurrent REQUEST cannot be admitted and must
    // get an immediate 429 with Retry-After.  Admission is enforced
    // at the dispatch edge — the reactor answers from its own thread
    // while the sole worker is busy — and the rejected connection
    // survives the 429 (it is the retry vehicle).
    std::atomic<bool> release{ false };
    ServeOptions opts;
    opts.port = 0;
    opts.workers = 1;
    opts.queueDepth = 1;
    // Short idle timeout so draining the parked keep-alive
    // connections at stop() does not stall the test suite.
    opts.idleTimeoutMs = 200;
    HttpServer server(opts, [&](const HttpRequest &, unsigned) {
        while (!release.load())
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
        return HttpResponse(200, "text/plain", "done");
    });
    server.start();

    // First request: admitted, occupies the worker.
    ClientSocket busy(server.port());
    ASSERT_TRUE(busy.ok());
    busy.sendAll("GET /x HTTP/1.1\r\nHost: x\r\n\r\n");
    // Second request: admitted, parks in the compute queue.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    ClientSocket parked(server.port());
    ASSERT_TRUE(parked.ok());
    parked.sendAll("GET /x HTTP/1.1\r\nHost: x\r\n\r\n");
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    // Third request: the queue is full — 429, immediately, while
    // the worker is still busy.
    ClientSocket rejected(server.port());
    ASSERT_TRUE(rejected.ok());
    rejected.sendAll("GET /x HTTP/1.1\r\nHost: x\r\n\r\n");
    const Response r = parseResponse(rejected.readResponse());
    EXPECT_EQ(r.status, 429);
    // Retry-After scales with the backlog: 1 queued + 1 in flight
    // over 1 worker -> 1 + 2/1 = 3 seconds.
    EXPECT_NE(r.raw.find("Retry-After: 3"), std::string::npos)
        << r.raw;

    release.store(true);
    const Response ok = parseResponse(busy.readResponse());
    EXPECT_EQ(ok.status, 200);
    server.stop();
    EXPECT_GE(server.stats().rejected, 1u);
}

TEST(HttpServerAdmission, RetryAfterGrowsWithQueueDepth)
{
    // Same overload shape but a deeper queue: the advertised backoff
    // must reflect the longer backlog, not a constant.
    std::atomic<bool> release{ false };
    ServeOptions opts;
    opts.port = 0;
    opts.workers = 1;
    opts.queueDepth = 4;
    opts.idleTimeoutMs = 200;
    HttpServer server(opts, [&](const HttpRequest &, unsigned) {
        while (!release.load())
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
        return HttpResponse(200, "text/plain", "done");
    });
    server.start();

    ClientSocket busy(server.port());
    ASSERT_TRUE(busy.ok());
    busy.sendAll("GET /x HTTP/1.1\r\nHost: x\r\n\r\n");
    std::vector<std::unique_ptr<ClientSocket>> parked;
    for (unsigned i = 0; i < opts.queueDepth; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        parked.push_back(
            std::make_unique<ClientSocket>(server.port()));
        ASSERT_TRUE(parked.back()->ok());
        parked.back()->sendAll("GET /x HTTP/1.1\r\nHost: x\r\n\r\n");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    // 4 queued + 1 in flight over 1 worker -> 1 + 5/1 = 6 seconds.
    ClientSocket rejected(server.port());
    ASSERT_TRUE(rejected.ok());
    rejected.sendAll("GET /x HTTP/1.1\r\nHost: x\r\n\r\n");
    const Response r = parseResponse(rejected.readResponse());
    EXPECT_EQ(r.status, 429);
    EXPECT_NE(r.raw.find("Retry-After: 6"), std::string::npos)
        << r.raw;

    release.store(true);
    parseResponse(busy.readResponse());
    server.stop();
}

// --------------------------------------------------- fault injection

/** Tests that arm faults must always disarm, even on early exit. */
class FaultyTransport : public ::testing::Test
{
  protected:
    void SetUp() override { FaultRegistry::instance().reset(); }
    void TearDown() override { FaultRegistry::instance().reset(); }
};

TEST_F(FaultyTransport, ShortReadsStillServeCorrectResponses)
{
    ServeOptions opts;
    opts.port = 0;
    opts.workers = 2;
    HttpServer server(opts, [](const HttpRequest &req, unsigned) {
        return HttpResponse(200, "text/plain", "echo:" + req.body);
    });
    server.start();

    // Every server-side recv() returns one byte: the read loop must
    // reassemble the request byte by byte without corruption.
    FaultRegistry::instance().configure("http.read:short");
    ClientSocket sock(server.port());
    ASSERT_TRUE(sock.ok());
    sock.sendAll("POST /x HTTP/1.1\r\nHost: x\r\n"
                 "Content-Length: 5\r\nConnection: close\r\n\r\n"
                 "hello");
    const Response r = parseResponse(sock.readResponse());
    FaultRegistry::instance().reset();
    EXPECT_EQ(r.status, 200);
    EXPECT_EQ(r.body, "echo:hello");
    server.stop();
}

TEST_F(FaultyTransport, ShortWritesStillDeliverFullResponses)
{
    ServeOptions opts;
    opts.port = 0;
    opts.workers = 2;
    const std::string big(8 * 1024, 'y');
    HttpServer server(opts, [&](const HttpRequest &, unsigned) {
        return HttpResponse(200, "text/plain", big);
    });
    server.start();

    ClientSocket sock(server.port());
    ASSERT_TRUE(sock.ok());
    // Arm after the client send: ClientSocket::sendAll goes through
    // the same writeAll and would slow the test pointlessly.
    sock.sendAll(
        "GET /x HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
    FaultRegistry::instance().configure("http.write:short:times=64");
    const Response r = parseResponse(sock.readResponse());
    FaultRegistry::instance().reset();
    EXPECT_EQ(r.status, 200);
    EXPECT_EQ(r.body, big);
    server.stop();
}

TEST_F(FaultyTransport, ReadFailureDropsConnectionNotServer)
{
    SKIP_WITHOUT_FAULT_INJECTION();
    ServeOptions opts;
    opts.port = 0;
    opts.workers = 2;
    HttpServer server(opts, [](const HttpRequest &, unsigned) {
        return HttpResponse(200, "text/plain", "ok");
    });
    server.start();

    FaultRegistry::instance().configure("http.read:fail:once");
    ClientSocket dropped(server.port());
    ASSERT_TRUE(dropped.ok());
    dropped.sendAll("GET /x HTTP/1.1\r\nHost: x\r\n\r\n");
    EXPECT_EQ(parseResponse(dropped.readResponse()).status, 0);

    // The next connection is served normally.
    ClientSocket fine(server.port());
    ASSERT_TRUE(fine.ok());
    fine.sendAll(
        "GET /x HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
    EXPECT_EQ(parseResponse(fine.readResponse()).status, 200);
    server.stop();
}

TEST_F(FaultyTransport, DyingWorkerIsRespawned)
{
    SKIP_WITHOUT_FAULT_INJECTION();
    ServeOptions opts;
    opts.port = 0;
    opts.workers = 1;          // the one worker dies; a respawn must serve
    opts.idleTimeoutMs = 200;
    HttpServer server(opts, [](const HttpRequest &, unsigned) {
        return HttpResponse(200, "text/plain", "alive");
    });
    server.start();

    FaultRegistry::instance().configure("worker.die:once");
    ClientSocket killed(server.port());
    ASSERT_TRUE(killed.ok());
    killed.sendAll("GET /x HTTP/1.1\r\nHost: x\r\n\r\n");
    EXPECT_EQ(parseResponse(killed.readResponse()).status, 0);
    FaultRegistry::instance().reset();

    ClientSocket next(server.port());
    ASSERT_TRUE(next.ok());
    next.sendAll(
        "GET /x HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
    EXPECT_EQ(parseResponse(next.readResponse()).status, 200);
    server.stop();
    EXPECT_EQ(server.stats().workerDeaths, 1u);
}

TEST_F(FaultyTransport, InjectedOverrunAnswers503)
{
    SKIP_WITHOUT_FAULT_INJECTION();
    ServeOptions opts;
    opts.port = 0;
    opts.workers = 1;
    HttpServer server(opts, [](const HttpRequest &, unsigned) {
        return HttpResponse(200, "text/plain", "fast");
    });
    server.start();

    FaultRegistry::instance().configure("worker.overrun:once");
    ClientSocket sock(server.port());
    ASSERT_TRUE(sock.ok());
    sock.sendAll("GET /x HTTP/1.1\r\nHost: x\r\n"
                 "X-Deadline-Ms: 50\r\nConnection: close\r\n\r\n");
    const Response r = parseResponse(sock.readResponse());
    FaultRegistry::instance().reset();
    EXPECT_EQ(r.status, 503);
    EXPECT_NE(r.body.find("overrun"), std::string::npos);
    server.stop();
}

TEST(HttpServerHardening, SlowlorisHeaderDribbleIsCutOff)
{
    ServeOptions opts;
    opts.port = 0;
    opts.workers = 1;
    opts.deadlineMs = 30000;    // the request budget would allow it...
    opts.headerTimeoutMs = 250; // ...the header clock does not
    HttpServer server(opts, [](const HttpRequest &, unsigned) {
        return HttpResponse(200, "text/plain", "ok");
    });
    server.start();

    ClientSocket sock(server.port());
    ASSERT_TRUE(sock.ok());
    sock.sendAll("GET /x HT");    // never finishes the head
    const auto start = std::chrono::steady_clock::now();
    const Response r = parseResponse(sock.readResponse());
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start);
    EXPECT_EQ(r.status, 408);
    // Cut off by the header clock, far inside the 30 s budget.
    EXPECT_LT(elapsed.count(), 5000);
    server.stop();
}

TEST(HttpServerAdmission, GracefulDrainFinishesInFlightRequest)
{
    std::atomic<bool> entered{ false };
    ServeOptions opts;
    opts.port = 0;
    opts.workers = 2;
    HttpServer server(opts, [&](const HttpRequest &, unsigned) {
        entered.store(true);
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        return HttpResponse(200, "text/plain", "drained fine");
    });
    server.start();

    ClientSocket sock(server.port());
    ASSERT_TRUE(sock.ok());
    sock.sendAll("GET /x HTTP/1.1\r\nHost: x\r\n\r\n");
    while (!entered.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    // stop() during the in-flight request: it must complete, not be
    // dropped.
    std::thread stopper([&] { server.stop(); });
    const Response r = parseResponse(sock.readResponse());
    stopper.join();
    EXPECT_EQ(r.status, 200);
    EXPECT_EQ(r.body, "drained fine");
    EXPECT_FALSE(server.running());
}

TEST(HttpServerAdmission, EphemeralPortsAreIndependent)
{
    const auto handler = [](const HttpRequest &, unsigned) {
        return HttpResponse(200, "text/plain", "ok");
    };
    ServeOptions opts;
    opts.port = 0;
    HttpServer a(opts, handler), b(opts, handler);
    a.start();
    b.start();
    EXPECT_NE(a.port(), 0);
    EXPECT_NE(b.port(), 0);
    EXPECT_NE(a.port(), b.port());
    EXPECT_EQ(roundTrip(a.port(), "GET", "/").status, 200);
    EXPECT_EQ(roundTrip(b.port(), "GET", "/").status, 200);
    a.stop();
    b.stop();
}

// ----------------------- HTTP/1.1 pipelining & event-driven capacity

/** Read exactly @p count responses off one socket, in arrival order. */
std::vector<Response>
readPipelinedResponses(int fd, std::size_t count)
{
    std::vector<Response> out;
    std::string buffer;
    char chunk[8192];
    for (;;) {
        // Split complete responses off the front of the buffer.
        for (;;) {
            const std::size_t headEnd = buffer.find("\r\n\r\n");
            if (headEnd == std::string::npos)
                break;
            std::size_t contentLength = 0;
            const std::size_t cl = buffer.find("Content-Length: ");
            if (cl != std::string::npos && cl < headEnd)
                contentLength = std::size_t(std::strtoull(
                    buffer.c_str() + cl + 16, nullptr, 10));
            const std::size_t total = headEnd + 4 + contentLength;
            if (buffer.size() < total)
                break;
            out.push_back(parseResponse(buffer.substr(0, total)));
            buffer.erase(0, total);
            if (out.size() == count)
                return out;
        }
        const ssize_t got = recv(fd, chunk, sizeof(chunk), 0);
        if (got <= 0)
            return out;    // EOF/error: fewer than count responses
        buffer.append(chunk, std::size_t(got));
    }
}

std::string
echoRequest(const std::string &body)
{
    return "POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: " +
        std::to_string(body.size()) + "\r\n\r\n" + body;
}

TEST(HttpPipelining, TwoRequestsOneSegmentAnsweredInOrder)
{
    ServeOptions opts;
    opts.port = 0;
    opts.workers = 2;
    HttpServer server(opts, [](const HttpRequest &req, unsigned) {
        return HttpResponse(200, "text/plain", "echo:" + req.body);
    });
    server.start();

    // Both requests arrive in ONE send — the server must parse both
    // from one buffered read and answer them in request order.
    ClientSocket sock(server.port());
    ASSERT_TRUE(sock.ok());
    ASSERT_TRUE(sock.sendAll(echoRequest("first") +
                             echoRequest("second")));
    const std::vector<Response> responses =
        readPipelinedResponses(sock.fd(), 2);
    ASSERT_EQ(responses.size(), 2u);
    EXPECT_EQ(responses[0].status, 200);
    EXPECT_EQ(responses[0].body, "echo:first");
    EXPECT_EQ(responses[1].status, 200);
    EXPECT_EQ(responses[1].body, "echo:second");
    // The second request was parsed behind the unanswered first.
    EXPECT_GE(server.stats().pipelined, 1u);
    server.stop();
}

TEST(HttpPipelining, SlowFirstRequestDoesNotReorderResponses)
{
    // A slow first request and a fast second one, pipelined: serial
    // per-connection dispatch means the fast one must still wait its
    // turn and the responses stay in request order.
    ServeOptions opts;
    opts.port = 0;
    opts.workers = 4;    // plenty of idle workers to tempt reordering
    HttpServer server(opts, [](const HttpRequest &req, unsigned) {
        if (req.body == "slow")
            std::this_thread::sleep_for(
                std::chrono::milliseconds(150));
        return HttpResponse(200, "text/plain", "echo:" + req.body);
    });
    server.start();

    ClientSocket sock(server.port());
    ASSERT_TRUE(sock.ok());
    ASSERT_TRUE(
        sock.sendAll(echoRequest("slow") + echoRequest("fast")));
    const std::vector<Response> responses =
        readPipelinedResponses(sock.fd(), 2);
    ASSERT_EQ(responses.size(), 2u);
    EXPECT_EQ(responses[0].body, "echo:slow");
    EXPECT_EQ(responses[1].body, "echo:fast");
    server.stop();
}

TEST(HttpPipelining, DeepPipelineAnsweredCompletelyInOrder)
{
    ServeOptions opts;
    opts.port = 0;
    opts.workers = 2;
    HttpServer server(opts, [](const HttpRequest &req, unsigned) {
        return HttpResponse(200, "text/plain", "echo:" + req.body);
    });
    server.start();

    constexpr int kDepth = 8;
    std::string batch;
    for (int i = 0; i < kDepth; ++i)
        batch += echoRequest("r" + std::to_string(i));
    ClientSocket sock(server.port());
    ASSERT_TRUE(sock.ok());
    ASSERT_TRUE(sock.sendAll(batch));
    const std::vector<Response> responses =
        readPipelinedResponses(sock.fd(), kDepth);
    ASSERT_EQ(responses.size(), std::size_t(kDepth));
    for (int i = 0; i < kDepth; ++i) {
        EXPECT_EQ(responses[std::size_t(i)].status, 200);
        EXPECT_EQ(responses[std::size_t(i)].body,
                  "echo:r" + std::to_string(i));
    }
    server.stop();
}

TEST(EventDrivenCapacity, IdleConnectionsDoNotStarveWorkers)
{
    // 64 parked keep-alive connections against TWO workers: under a
    // thread-per-connection server each parked socket would pin a
    // worker and live traffic would starve; the reactor parks them
    // as passive epoll entries and live requests go straight
    // through.
    ServeOptions opts;
    opts.port = 0;
    opts.workers = 2;
    HttpServer server(opts, [](const HttpRequest &req, unsigned) {
        return HttpResponse(200, "text/plain", "echo:" + req.body);
    });
    server.start();

    std::vector<std::unique_ptr<ClientSocket>> parked;
    for (int i = 0; i < 64; ++i) {
        parked.push_back(
            std::make_unique<ClientSocket>(server.port()));
        ASSERT_TRUE(parked.back()->ok()) << "conn " << i;
    }

    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < 5; ++i) {
        const Response r = roundTrip(server.port(), "POST", "/echo",
                                     "live" + std::to_string(i));
        ASSERT_EQ(r.status, 200) << "live request " << i;
        EXPECT_EQ(r.body, "echo:live" + std::to_string(i));
    }
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start);
    // Far inside the idle timeout: the parked fleet cost nothing.
    EXPECT_LT(elapsed.count(), 3000);

    // The parked connections are still live too, not just ballast.
    ASSERT_TRUE(parked[0]->sendAll(echoRequest("wakeup")));
    const Response woken = parseResponse(parked[0]->readResponse());
    EXPECT_EQ(woken.status, 200);
    EXPECT_EQ(woken.body, "echo:wakeup");
    server.stop();
}

TEST(EventDrivenCapacity, PartialWritesResumeUntilLargeResponseLands)
{
    // A response far larger than the initial socket send buffer: the
    // first writev cannot take it all, so the reactor must park the
    // partial write on EPOLLOUT and resume — repeatedly — until
    // every byte is delivered intact and in order.
    std::string big(8 << 20, '\0');
    for (std::size_t i = 0; i < big.size(); ++i)
        big[i] = char('a' + int(i % 26));
    ServeOptions opts;
    opts.port = 0;
    opts.workers = 1;
    HttpServer server(opts, [&](const HttpRequest &, unsigned) {
        return HttpResponse(200, "application/octet-stream", big);
    });
    server.start();

    ClientSocket sock(server.port());
    ASSERT_TRUE(sock.ok());
    ASSERT_TRUE(sock.sendAll(
        "GET /big HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"));

    std::string wire;
    char chunk[64 * 1024];
    for (;;) {
        const ssize_t got = recv(sock.fd(), chunk, sizeof(chunk), 0);
        if (got <= 0)
            break;
        wire.append(chunk, std::size_t(got));
    }
    const Response r = parseResponse(wire);
    EXPECT_EQ(r.status, 200);
    ASSERT_EQ(r.body.size(), big.size());
    EXPECT_EQ(r.body, big);
    server.stop();
}

TEST(EventDrivenCapacity, SlowReaderIsDisconnectedAfterWriteBudget)
{
    // A peer that stops draining entirely: the write budget bounds
    // how long buffered response bytes are held, then the connection
    // is dropped — it cannot hold reactor memory forever.  Closure
    // is observed through the server's own connection gauge (the
    // client side cannot see EOF until it drains what the kernel
    // already buffered, which is exactly the slow path this test
    // avoids).
    const std::string big(4 << 20, 'x');
    ServeOptions opts;
    opts.port = 0;
    opts.workers = 1;
    opts.writeTimeoutMs = 250;
    HttpServer server(opts, [&](const HttpRequest &, unsigned) {
        return HttpResponse(200, "application/octet-stream", big);
    });
    server.start();

    ClientSocket sock(server.port());
    ASSERT_TRUE(sock.ok());
    const int rcvbuf = 4096;
    setsockopt(sock.fd(), SOL_SOCKET, SO_RCVBUF, &rcvbuf,
               sizeof(rcvbuf));
    ASSERT_TRUE(
        sock.sendAll("GET /big HTTP/1.1\r\nHost: x\r\n\r\n"));

    // Wait for the request to be accepted and the write to start...
    const auto start = std::chrono::steady_clock::now();
    while (server.stats().connections == 0 &&
           std::chrono::steady_clock::now() - start <
               std::chrono::seconds(2))
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_EQ(server.stats().connections, 1u);

    // ...then read nothing.  Within a few write budgets the reactor
    // must abandon the stalled write and drop the connection.
    while (server.stats().connections != 0 &&
           std::chrono::steady_clock::now() - start <
               std::chrono::seconds(5))
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start);
    EXPECT_EQ(server.stats().connections, 0u);
    EXPECT_LT(elapsed.count(), 5000);
    server.stop();
}

// ----------------------------------------------- request tracing

TEST(RequestTrace, PhaseSumIdentityHoldsAndClampsRetrograde)
{
    ReqTraceOptions opts;
    opts.workers = 2;
    RequestTracer tracer(opts);

    RequestSpan span;
    span.setEndpoint("simulate");
    span.ts[kStampRecv] = 1000;
    span.ts[kStampParsed] = 1200;
    span.ts[kStampDispatch] = 1100;     // retrograde: clamps to 1200
    span.ts[kStampStart] = 1500;
    span.ts[kStampDone] = 2000;
    span.ts[kStampSerialized] = 0;      // unset: clamps to 2000
    span.ts[kStampFirstWrite] = 2100;
    span.ts[kStampLastWrite] = 2400;
    span.worker = 1;
    tracer.publish(span);

    EXPECT_EQ(span.seq, 1u);
    std::uint64_t sum = 0;
    for (unsigned i = 0; i < kNumReqPhases; ++i) {
        EXPECT_GE(span.ts[i + 1], span.ts[i]);
        sum += span.phaseNs(i);
    }
    EXPECT_EQ(sum, span.totalNs());
    EXPECT_EQ(span.totalNs(), 1400u);

    const std::vector<RequestSpan> spans = tracer.snapshot(0);
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].ts[kStampDispatch], 1200u);
    EXPECT_EQ(spans[0].ts[kStampSerialized], 2000u);
}

TEST(RequestTrace, RingKeepsNewestSpansOldestFirst)
{
    ReqTraceOptions opts;
    opts.ringCapacity = 4;
    opts.workers = 0;
    RequestTracer tracer(opts);
    for (unsigned i = 0; i < 10; ++i) {
        RequestSpan span;
        span.setEndpoint("healthz");
        span.ts[kStampRecv] = 100 * (i + 1);
        span.ts[kStampLastWrite] = 100 * (i + 1) + 50;
        tracer.publish(span);
    }
    // Capacity 4: only the last four survive, sorted by seq.
    const std::vector<RequestSpan> all = tracer.snapshot(0);
    ASSERT_EQ(all.size(), 4u);
    for (std::size_t i = 0; i < all.size(); ++i)
        EXPECT_EQ(all[i].seq, 7 + i);
    // lastN narrows further, still oldest first.
    const std::vector<RequestSpan> last2 = tracer.snapshot(2);
    ASSERT_EQ(last2.size(), 2u);
    EXPECT_EQ(last2[0].seq, 9u);
    EXPECT_EQ(last2[1].seq, 10u);
}

/** A span whose every field derives from @p i (1-based). */
RequestSpan
ringSpan(std::uint64_t i)
{
    RequestSpan span;
    span.seq = i;
    span.setEndpoint("simulate");
    for (unsigned s = 0; s < kNumStamps; ++s)
        span.ts[s] = 1000 * i + s;
    span.cacheNs = 7 * i;
    span.fd = int(i % 1000);
    span.gen = std::uint32_t(3 * i);
    span.status = 200;
    return span;
}

/** @p span is exactly ringSpan(span.seq): no torn or mixed words. */
void
expectWholeSpan(const RequestSpan &span)
{
    const RequestSpan want = ringSpan(span.seq);
    for (unsigned s = 0; s < kNumStamps; ++s)
        EXPECT_EQ(span.ts[s], want.ts[s]) << "seq " << span.seq;
    EXPECT_EQ(span.cacheNs, want.cacheNs) << "seq " << span.seq;
    EXPECT_EQ(span.fd, want.fd) << "seq " << span.seq;
    EXPECT_EQ(span.gen, want.gen) << "seq " << span.seq;
    EXPECT_EQ(span.status, want.status) << "seq " << span.seq;
    EXPECT_STREQ(span.endpoint, want.endpoint) << "seq " << span.seq;
}

TEST(RequestTrace, FreshRingSnapshotsEmpty)
{
    const SpanRing ring(2048);
    EXPECT_EQ(ring.capacity(), 2048u);
    EXPECT_EQ(ring.pushed(), 0u);
    std::vector<RequestSpan> out;
    ring.snapshot(out);
    EXPECT_TRUE(out.empty());

    // A zero capacity still holds one span.
    SpanRing tiny(0);
    EXPECT_EQ(tiny.capacity(), 1u);
    tiny.snapshot(out);
    EXPECT_TRUE(out.empty());
}

TEST(RequestTrace, RingBelowCapacityKeepsEveryPush)
{
    SpanRing ring(2048);
    const std::uint64_t k = 100;
    for (std::uint64_t i = 1; i <= k; ++i)
        ring.push(ringSpan(i));
    EXPECT_EQ(ring.pushed(), k);

    std::vector<RequestSpan> out;
    ring.snapshot(out);
    ASSERT_EQ(out.size(), k);
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out[i].seq, i + 1);     // slot order = push order
        expectWholeSpan(out[i]);
    }
}

TEST(RequestTrace, RingLappedTwiceKeepsNewestCapacity)
{
    SpanRing ring(2048);
    const std::uint64_t pushes = 2 * ring.capacity();
    for (std::uint64_t i = 1; i <= pushes; ++i)
        ring.push(ringSpan(i));
    EXPECT_EQ(ring.pushed(), pushes);

    std::vector<RequestSpan> out;
    ring.snapshot(out);
    ASSERT_EQ(out.size(), ring.capacity());
    std::set<std::uint64_t> seqs;
    for (const RequestSpan &span : out) {
        EXPECT_GT(span.seq, pushes - ring.capacity());
        expectWholeSpan(span);
        seqs.insert(span.seq);
    }
    EXPECT_EQ(seqs.size(), ring.capacity());
}

TEST(RequestTrace, ConcurrentSnapshotSeesOnlyWholeSpans)
{
    // The writer laps a small ring while a reader snapshots: every
    // span the reader keeps must be one the writer pushed, whole.
    SpanRing ring(8);
    constexpr std::uint64_t kPushes = 20000;
    std::atomic<bool> done{ false };
    std::thread writer([&] {
        for (std::uint64_t i = 1; i <= kPushes; ++i)
            ring.push(ringSpan(i));
        done.store(true, std::memory_order_release);
    });
    std::vector<RequestSpan> out;
    while (!done.load(std::memory_order_acquire)) {
        out.clear();
        ring.snapshot(out);
        for (const RequestSpan &span : out) {
            EXPECT_GE(span.seq, 1u);
            EXPECT_LE(span.seq, kPushes);
            expectWholeSpan(span);
        }
    }
    writer.join();
    out.clear();
    ring.snapshot(out);
    EXPECT_EQ(out.size(), ring.capacity());
    for (const RequestSpan &span : out) {
        EXPECT_GT(span.seq, kPushes - ring.capacity());
        expectWholeSpan(span);
    }
}

TEST(RequestTrace, SlowLogThresholdAndRateCap)
{
    ReqTraceOptions opts;
    opts.slowRequestNs = 1000000;   // 1 ms
    RequestTracer tracer(opts);

    RequestSpan fast;
    fast.setEndpoint("simulate");
    fast.ts[kStampRecv] = 1000;
    fast.ts[kStampLastWrite] = 2000;    // 1 us: under threshold
    EXPECT_FALSE(tracer.publish(fast));

    // kSlowLogBurst (10) tokens per window, then suppression; the
    // stamps stay inside one 1 s window.
    unsigned logged = 0;
    for (unsigned i = 0; i < 15; ++i) {
        RequestSpan slow;
        slow.setEndpoint("sweep");
        slow.status = 200;
        slow.ts[kStampRecv] = 1000 + i;
        slow.ts[kStampLastWrite] = 3000000 + i;     // ~3 ms
        if (tracer.publish(slow))
            ++logged;
    }
    EXPECT_EQ(logged, 10u);

    RequestSpan slow;
    slow.setEndpoint("sweep");
    slow.flags = RequestSpan::kFlagCacheHit;
    slow.status = 200;
    slow.fd = 7;
    slow.ts[kStampRecv] = 1000;
    slow.ts[kStampLastWrite] = 5000000;
    tracer.publish(slow);
    const std::string line = formatSlowLine(slow);
    EXPECT_NE(line.find("slow-request"), std::string::npos);
    EXPECT_NE(line.find("endpoint=sweep"), std::string::npos);
    EXPECT_NE(line.find("status=200"), std::string::npos);
    EXPECT_NE(line.find("fd=7"), std::string::npos);
    EXPECT_NE(line.find("cache_hit=1"), std::string::npos);
    EXPECT_NE(line.find("compute_us="), std::string::npos);
    EXPECT_NE(line.find("total_ms="), std::string::npos);
}

TEST(RequestTrace, MetricsExposePhaseAndEndpointHistograms)
{
    ReqTraceOptions opts;
    RequestTracer tracer(opts);
    RequestSpan span;
    span.setEndpoint("simulate");
    span.ts[kStampRecv] = 1000;
    span.ts[kStampParsed] = 1100;
    span.ts[kStampLastWrite] = 9000;
    tracer.publish(span);

    MetricsRegistry out;
    tracer.appendMetrics(out);
    const std::string text = renderPrometheus(out);
    EXPECT_NE(
        text.find("mfusim_http_phase_seconds_count{phase=\"total\"}"),
        std::string::npos)
        << text;
    EXPECT_NE(text.find("mfusim_http_phase_seconds_count"
                        "{phase=\"parse\"} 1"),
              std::string::npos);
    EXPECT_NE(text.find("mfusim_http_request_seconds_count"
                        "{endpoint=\"simulate\"} 1"),
              std::string::npos);
    EXPECT_NE(text.find("mfusim_http_trace_spans_published_total 1"),
              std::string::npos);
}

/** ServeE2E plus an armed RequestTracer — the production wiring. */
class TracedServeE2E : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ResultCache::instance().clear();
        ServeOptions opts;
        opts.port = 0;
        opts.workers = 2;
        opts.deadlineMs = 10000;

        ReqTraceOptions traceOpts;
        traceOpts.workers = opts.workers;
        tracer_ = std::make_unique<RequestTracer>(traceOpts);

        SimServiceOptions serviceOpts;
        serviceOpts.version = "test";
        serviceOpts.gitSha = "deadbeef";
        serviceOpts.buildType = "Test";
        serviceOpts.tracer = tracer_.get();
        service_ = std::make_unique<SimService>(serviceOpts);
        server_ = std::make_unique<HttpServer>(
            opts, [this](const HttpRequest &request,
                         unsigned budgetMs) {
                return service_->handle(request, budgetMs);
            });
        service_->setServer(server_.get());
        server_->setFastHandler(
            [this](const HttpRequest &request, HttpResponse *out) {
                return service_->tryFastAnswer(request, out);
            });
        server_->setTracer(tracer_.get());
        server_->start();
        ASSERT_NE(server_->port(), 0);
    }

    void
    TearDown() override
    {
        server_->stop();
        FaultRegistry::instance().setFireListener(nullptr);
        FaultRegistry::instance().reset();
        ResultCache::instance().clear();
    }

    std::uint16_t port() const { return server_->port(); }

    std::unique_ptr<RequestTracer> tracer_;
    std::unique_ptr<SimService> service_;
    std::unique_ptr<HttpServer> server_;
};

TEST_F(TracedServeE2E, PipelinedBurstExportsValidTrace)
{
    // A pipelined burst over one connection: every response must
    // come back, and every request must appear in /v1/trace with an
    // exact phase-sum identity.
    constexpr unsigned kBurst = 8;
    const std::string simulate =
        "{\"loop\": 3, \"machine\": \"cray\"}";
    {
        ClientSocket sock(port());
        ASSERT_TRUE(sock.ok());
        std::string wire;
        for (unsigned i = 0; i < kBurst; ++i) {
            const bool last = i + 1 == kBurst;
            wire += "POST /v1/simulate HTTP/1.1\r\n"
                    "Host: localhost\r\nConnection: " +
                std::string(last ? "close" : "keep-alive") +
                "\r\nContent-Length: " +
                std::to_string(simulate.size()) + "\r\n\r\n" +
                simulate;
        }
        ASSERT_TRUE(sock.sendAll(wire));
        std::string all;
        for (unsigned i = 0; i < kBurst; ++i) {
            const std::string one = sock.readResponse();
            if (one.empty())
                break;
            all += one;
        }
        std::size_t ok = 0, pos = 0;
        while ((pos = all.find("HTTP/1.1 200", pos)) !=
               std::string::npos) {
            ++ok;
            pos += 8;
        }
        EXPECT_EQ(ok, kBurst) << all.substr(0, 400);
    }

    const Response trace = roundTrip(port(), "GET", "/v1/trace");
    ASSERT_EQ(trace.status, 200);
    const Json doc = parseJson(trace.body);
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.find("schema")->asString(),
              "mfusim-serve-trace-v1");

    // Walk the events: b/e pairing by id, phase-sum identity on
    // every "e", and thread-name metadata for reactor + workers.
    const Json *events = doc.find("traceEvents");
    ASSERT_TRUE(events != nullptr && events->isArray());
    std::size_t begins = 0, ends = 0, threadNames = 0;
    std::size_t simulateSpans = 0;
    for (const Json &event : events->items()) {
        const std::string ph = event.find("ph")->asString();
        if (ph == "M") {
            if (event.find("name")->asString() == "thread_name")
                ++threadNames;
            continue;
        }
        if (ph == "b")
            ++begins;
        if (ph != "e")
            continue;
        ++ends;
        const Json *args = event.find("args");
        ASSERT_TRUE(args != nullptr && args->isObject());
        const Json *phases = args->find("phase_ns");
        ASSERT_TRUE(phases != nullptr && phases->isObject());
        double sum = 0;
        for (unsigned i = 0; i < kNumReqPhases; ++i)
            sum += phases->find(reqPhaseName(i))->asNumber();
        EXPECT_DOUBLE_EQ(sum, args->find("total_ns")->asNumber());
        if (event.find("name")->asString() == "simulate")
            ++simulateSpans;
    }
    EXPECT_EQ(begins, ends);
    EXPECT_GE(simulateSpans, kBurst);
    // tid 1 (reactor) + one per worker.
    EXPECT_EQ(threadNames, 3u);

    // ?last=N narrows the export.
    const Response last2 =
        roundTrip(port(), "GET", "/v1/trace?last=2");
    ASSERT_EQ(last2.status, 200);
    std::size_t last2Ends = 0, pos = 0;
    while ((pos = last2.body.find("\"ph\": \"e\"", pos)) !=
           std::string::npos) {
        ++last2Ends;
        pos += 9;
    }
    EXPECT_EQ(last2Ends, 2u);
}

TEST_F(TracedServeE2E, MetricsCarryPhaseHistogramsAndBuildInfo)
{
    ASSERT_EQ(roundTrip(port(), "GET", "/healthz").status, 200);
    const Response metrics = roundTrip(port(), "GET", "/metrics");
    ASSERT_EQ(metrics.status, 200);
    const std::string &text = metrics.body;
    EXPECT_NE(text.find("mfusim_http_phase_seconds_bucket"),
              std::string::npos);
    EXPECT_NE(text.find("phase=\"compute\""), std::string::npos);
    EXPECT_NE(text.find("mfusim_http_request_seconds_count"),
              std::string::npos);
    EXPECT_NE(text.find("mfusim_build_info{"), std::string::npos);
    EXPECT_NE(text.find("git_sha=\"deadbeef\""), std::string::npos);
    EXPECT_NE(text.find("build_type=\"Test\""), std::string::npos);
    EXPECT_NE(text.find("mfusim_process_uptime_seconds"),
              std::string::npos);
}

TEST_F(TracedServeE2E, HealthzReportsUptimeAndGitSha)
{
    const Response r = roundTrip(port(), "GET", "/healthz");
    ASSERT_EQ(r.status, 200);
    const Json body = parseJson(r.body);
    EXPECT_EQ(body.find("git_sha")->asString(), "deadbeef");
    ASSERT_NE(body.find("uptime_seconds"), nullptr);
    EXPECT_GE(body.find("uptime_seconds")->asNumber(), 0.0);
}

TEST_F(TracedServeE2E, FaultFiresAppearAsInstantEvents)
{
    SKIP_WITHOUT_FAULT_INJECTION();
    RequestTracer *tracer = tracer_.get();
    FaultRegistry::instance().setFireListener(
        [tracer](const std::string &point) {
            tracer->recordFault(point);
        });
    FaultRegistry::instance().configure("worker.overrun:once");

    const Response r = roundTrip(
        port(), "POST", "/v1/simulate",
        "{\"loop\": 2, \"machine\": \"cray\"}");
    EXPECT_EQ(r.status, 503);   // the injected overrun's answer

    const Response trace = roundTrip(port(), "GET", "/v1/trace");
    ASSERT_EQ(trace.status, 200);
    EXPECT_NE(trace.body.find("fault worker.overrun"),
              std::string::npos);
    EXPECT_NE(trace.body.find("\"ph\": \"i\""), std::string::npos);

    FaultRegistry::instance().setFireListener(nullptr);
    FaultRegistry::instance().configure("");
}

TEST(RequestTraceDisabled, TraceEndpointAnswers503)
{
    ResultCache::instance().clear();
    ServeOptions opts;
    opts.port = 0;
    opts.workers = 1;
    SimService service(SimServiceOptions{ "test", 64 });
    HttpServer server(opts,
                      [&service](const HttpRequest &request,
                                 unsigned budgetMs) {
                          return service.handle(request, budgetMs);
                      });
    service.setServer(&server);
    server.start();
    const Response r = roundTrip(server.port(), "GET", "/v1/trace");
    EXPECT_EQ(r.status, 503);
    server.stop();
    ResultCache::instance().clear();
}

TEST(HttpServerAdmission, PortCollisionThrowsServeError)
{
    const auto handler = [](const HttpRequest &, unsigned) {
        return HttpResponse(200, "text/plain", "ok");
    };
    ServeOptions opts;
    opts.port = 0;
    HttpServer first(opts, handler);
    first.start();
    ServeOptions clash;
    clash.port = first.port();
    HttpServer second(clash, handler);
    try {
        second.start();
        FAIL() << "no ServeError for a taken port";
    } catch (const ServeError &e) {
        EXPECT_EQ(e.exitCode(), 8);
        EXPECT_EQ(e.httpStatus(), 0);
    }
    first.stop();
}

} // namespace
} // namespace mfusim
