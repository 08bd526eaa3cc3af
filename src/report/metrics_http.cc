#include "report/metrics_http.hh"

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.hh"
#include "report/telemetry.hh"

namespace espsim
{

namespace
{

std::string
httpResponse(int status, const char *reason,
             const std::string &content_type, const std::string &body)
{
    std::string out = "HTTP/1.0 ";
    out += std::to_string(status);
    out += ' ';
    out += reason;
    out += "\r\nContent-Type: ";
    out += content_type;
    out += "\r\nContent-Length: ";
    out += std::to_string(body.size());
    out += "\r\nConnection: close\r\n\r\n";
    out += body;
    return out;
}

std::string
healthzBody(const TelemetryPlane &plane)
{
    if (!plane.degraded())
        return "{\"status\":\"ok\"}\n";
    std::string reason = plane.degradedReason();
    // Reason strings are our own log text; escape the JSON specials
    // anyway so the body stays parseable no matter what.
    std::string escaped;
    for (const char c : reason) {
        if (c == '"' || c == '\\')
            escaped.push_back('\\');
        if (static_cast<unsigned char>(c) >= 0x20)
            escaped.push_back(c);
    }
    return "{\"status\":\"degraded\",\"reason\":\"" + escaped +
           "\"}\n";
}

} // namespace

std::string
metricsHttpResponse(const TelemetryPlane &plane,
                    const std::string &target)
{
    if (target == "/metrics") {
        return httpResponse(
            200, "OK", "text/plain; version=0.0.4; charset=utf-8",
            renderPrometheusText(plane.latest(), plane.degraded()));
    }
    if (target == "/healthz") {
        if (plane.degraded())
            return httpResponse(503, "Service Unavailable",
                                "application/json",
                                healthzBody(plane));
        return httpResponse(200, "OK", "application/json",
                            healthzBody(plane));
    }
    if (target == "/snapshot.json") {
        const TelemetryPlane::View view = plane.latest();
        if (!view.valid || !view.names) {
            return httpResponse(503, "Service Unavailable",
                                "application/json",
                                "{\"error\":\"no snapshot yet\"}\n");
        }
        TelemetryRunInfo info;
        info.config = view.config;
        info.workload = view.workload;
        info.configHash = view.configHash;
        std::string body = renderTelemetrySnapshotJson(
            info, *view.names, view.snap, /*includeNames=*/true);
        body.push_back('\n');
        return httpResponse(200, "OK", "application/json", body);
    }
    return httpResponse(404, "Not Found", "text/plain",
                        "not found\n");
}

MetricsHttpServer::~MetricsHttpServer()
{
    stop();
}

bool
MetricsHttpServer::start(std::uint16_t port)
{
    if (fd_ >= 0)
        return true;
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return false;
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(fd, 16) != 0) {
        const int saved = errno;
        ::close(fd);
        errno = saved;
        return false;
    }
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&addr),
                      &len) == 0)
        port_ = ntohs(addr.sin_port);
    else
        port_ = port;
    fd_ = fd;
    stop_.store(false, std::memory_order_release);
    thread_ = std::thread([this] { acceptLoop(); });
    return true;
}

void
MetricsHttpServer::stop()
{
    if (fd_ < 0)
        return;
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable())
        thread_.join();
    ::close(fd_);
    fd_ = -1;
}

void
MetricsHttpServer::acceptLoop()
{
    while (!stop_.load(std::memory_order_acquire)) {
        pollfd pfd{};
        pfd.fd = fd_;
        pfd.events = POLLIN;
        // Short poll timeout so stop() is honoured promptly without
        // the self-pipe dance.
        const int ready = ::poll(&pfd, 1, 200);
        if (ready <= 0)
            continue;
        const int client = ::accept(fd_, nullptr, nullptr);
        if (client < 0)
            continue;
        handleConnection(client);
        ::close(client);
    }
}

void
MetricsHttpServer::handleConnection(int client)
{
    // One short request line is all we need; clients sending slowly
    // get a bounded wait, not a hung accept loop.
    pollfd pfd{};
    pfd.fd = client;
    pfd.events = POLLIN;
    if (::poll(&pfd, 1, 1000) <= 0)
        return;
    char buf[2048];
    const ssize_t n = ::recv(client, buf, sizeof(buf) - 1, 0);
    if (n <= 0)
        return;
    buf[n] = '\0';
    // Parse "GET <target> HTTP/1.x" — anything else is a 404/405.
    std::string response;
    if (std::strncmp(buf, "GET ", 4) == 0) {
        const char *start = buf + 4;
        const char *end = std::strchr(start, ' ');
        const std::string target =
            end ? std::string(start, end) : std::string(start);
        response = metricsHttpResponse(plane_, target);
    } else {
        response = httpResponse(405, "Method Not Allowed",
                                "text/plain", "GET only\n");
    }
    requests_.fetch_add(1, std::memory_order_relaxed);
    std::size_t off = 0;
    while (off < response.size()) {
        const ssize_t sent =
            ::send(client, response.data() + off,
                   response.size() - off, MSG_NOSIGNAL);
        if (sent <= 0)
            break;
        off += static_cast<std::size_t>(sent);
    }
}

} // namespace espsim
