/**
 * @file
 * espsim_validate FILE...: run checkArtifact() on each file, a
 * `.jsonl` one as a telemetry stream. Prints `FILE: problem` lines to
 * stderr and exits 1 if any file has a problem.
 */

#include <fstream>
#include <iostream>
#include <iterator>

#include "check/artifact_check.hh"

int
main(int argc, char **argv)
{
    int status = argc < 2;
    for (int i = 1; i < argc; ++i) {
        const std::string path = argv[i];
        std::ifstream in(path, std::ios::binary);
        const std::string text{std::istreambuf_iterator<char>(in), {}};
        for (const std::string &problem :
             in ? espsim::checkArtifact(text, path.ends_with(".jsonl"))
                : espsim::Problems{"cannot read the file"}) {
            std::cerr << path << ": " << problem << "\n";
            status = 1;
        }
    }
    return status;
}
